package analysis

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/taint"
)

// Verdict is the per-instruction result for dereference sites (loads,
// stores, and register jumps — the paper's three detector classes).
type Verdict uint8

const (
	// VerdictNone: not a dereference site, or never reached by the
	// abstract execution.
	VerdictNone Verdict = iota
	// ProvablyClean: the address register is untainted on every
	// execution the model covers; a dynamic pointer-taintedness alert
	// here is impossible.
	ProvablyClean
	// MayDereferenceTainted: a tainted value may reach the address
	// register; the dynamic detectors may fire here.
	MayDereferenceTainted
)

func (v Verdict) String() string {
	switch v {
	case ProvablyClean:
		return "ProvablyClean"
	case MayDereferenceTainted:
		return "MayDereferenceTainted"
	default:
		return "None"
	}
}

// Site is one dereference site with its verdict, for ptlint/ptdbg.
type Site struct {
	PC      uint32
	In      isa.Instruction
	Verdict Verdict
	Chain   string // reaching-taint chain, "" when ProvablyClean
}

// Result holds the analysis output for one image.
type Result struct {
	TextBase uint32

	// Bailed: the image contains control flow the model cannot follow
	// soundly (cross-function branch, diverging fixpoint). The result
	// then claims nothing: every dereference site is
	// MayDereferenceTainted and there are no facts.
	Bailed     bool
	BailReason string

	// SiteBails lists the per-site precision losses: indirect calls
	// whose target set could not be bounded to one function. The rest of
	// the image keeps its facts — this is what replaced the old
	// whole-image jalr bail.
	SiteBails []SiteBail

	verdicts []Verdict
	chains   []string
	facts    []uint8
}

// SiteBail is one recorded per-site precision loss, in PC order.
type SiteBail struct {
	PC     uint32
	Reason string
}

// VerdictAt returns the verdict for the instruction at pc.
func (r *Result) VerdictAt(pc uint32) Verdict {
	if i := r.idx(pc); i >= 0 {
		return r.verdicts[i]
	}
	return VerdictNone
}

// ChainAt returns the reaching-taint chain for a MayDereferenceTainted
// pc, or "".
func (r *Result) ChainAt(pc uint32) string {
	if i := r.idx(pc); i >= 0 {
		return r.chains[i]
	}
	return ""
}

// Static facts are per-text-word bits, each a proof obligation the
// analyzer discharged for every execution reaching that instruction. No
// execution tier consumes them: the machine checks taint dynamically on
// every path, and the soundness tests hold each bit to what the
// reference interpreter observes.
const (
	// FactOperandsClean: both taint-source registers (cpu.TaintSources)
	// of this ALU/shift instruction are provably untainted here.
	FactOperandsClean uint8 = 1 << 0
	// FactAddrClean: the address register of this load/store/jr is
	// provably untainted here, so the pointer-taintedness check cannot
	// fire.
	FactAddrClean uint8 = 1 << 1
)

// Facts returns the per-text-word static fact bits (FactOperandsClean |
// FactAddrClean); facts[i] covers the text word at TextBase + 4i. The
// returned slice is shared; callers must not mutate it.
func (r *Result) Facts() []uint8 { return r.facts }

func (r *Result) idx(pc uint32) int {
	if pc < r.TextBase || (pc-r.TextBase)%4 != 0 {
		return -1
	}
	i := int((pc - r.TextBase) / 4)
	if i >= len(r.verdicts) {
		return -1
	}
	return i
}

// Sites returns every dereference site in PC order.
func (r *Result) Sites() []Site {
	var out []Site
	for i, v := range r.verdicts {
		if v == VerdictNone {
			continue
		}
		out = append(out, Site{PC: r.TextBase + uint32(i)*4, Verdict: v, Chain: r.chains[i]})
	}
	return out
}

// maxRounds bounds the interprocedural fixpoint; the lattice is finite
// so convergence is expected in a handful of rounds, and hitting the
// cap bails conservatively rather than claiming facts.
const maxRounds = 200

// Analyze runs the static may-taint analysis over a loaded image under
// the given propagation configuration (whose ablation flags gate the
// untaint rules exactly as they do dynamically).
func Analyze(im *asm.Image, prop taint.Propagator) (*Result, error) {
	p, err := newProgram(im, prop)
	if err != nil {
		return nil, err
	}
	if !p.bail {
		p.run()
	}
	return p.extract(), nil
}

// rootState is the machine state the kernel establishes at the entry
// point: registers zeroed, $sp = $fp at the base of the argument block
// (our coordinate origin), $gp at the data-segment anchor, $a0 = argc
// (clean), $a1/$a2 = argv/envp (clean pointers into the stack above
// $sp, whose pointees are untracked slots and therefore MaybeTainted —
// the kernel taints the string bytes when TaintInputs is on).
func rootState() *state {
	s := newState()
	for r := range s.regs {
		s.regs[r] = constVal(0)
	}
	s.regs[isa.RegSP] = absVal{t: Clean, k: kSym, v: 0}
	s.regs[isa.RegFP] = absVal{t: Clean, k: kSym, v: 0}
	s.regs[isa.RegGP] = constVal(asm.DataBase + 0x8000)
	s.regs[isa.RegA0] = cleanUnknown()
	s.regs[isa.RegA1] = absVal{t: Clean, k: kStackAny}
	s.regs[isa.RegA2] = absVal{t: Clean, k: kStackAny}
	return s
}

// run drives the interprocedural fixpoint: rounds of per-function
// analysis until no function entry, return summary, or global region
// changes.
func (p *program) run() {
	rootIdx := p.idxOf(p.im.Entry)
	root := p.fnByIdx[rootIdx]
	if root == nil {
		p.setBail(fmt.Sprintf("entry %#x is not a function start", p.im.Entry))
		return
	}
	root.entry = rootState()
	root.entrySet = true

	converged := false
	for round := 0; round < maxRounds; round++ {
		p.envChanged = false
		for _, f := range p.funcs {
			if !f.entrySet {
				continue
			}
			p.analyzeFunc(f)
			if p.bail {
				return
			}
		}
		if !p.envChanged {
			converged = true
			break
		}
	}
	if !converged {
		p.setBail("interprocedural fixpoint did not converge")
	}
}

// analyzeFunc runs the intraprocedural worklist for one function from
// its (joined) entry state.
func (p *program) analyzeFunc(f *fn) {
	b0 := f.blockAt[f.start]
	if b0 == nil {
		return
	}
	if !b0.inSet {
		b0.in = f.entry.clone()
		b0.inSet = true
	} else {
		b0.in.joinInto(f.entry)
	}

	work := make([]*block, 0, len(f.blocks))
	queued := make(map[*block]bool)
	push := func(b *block) {
		if !queued[b] {
			queued[b] = true
			work = append(work, b)
		}
	}
	for _, b := range f.blocks {
		if b.inSet {
			push(b)
		}
	}
	steps, cap := 0, (len(f.blocks)+1)*400
	for len(work) > 0 {
		steps++
		if steps > cap {
			p.setBail(fmt.Sprintf("fixpoint divergence in %s", f.name))
			return
		}
		b := work[0]
		work = work[1:]
		queued[b] = false
		for _, e := range p.walkBlock(f, b, nil) {
			if !e.to.inSet {
				e.to.in = e.st.clone()
				e.to.inSet = true
				push(e.to)
			} else if e.to.in.joinInto(e.st) {
				push(e.to)
			}
		}
		if p.bail {
			return
		}
	}
}

// extract replays every reached block at the fixpoint, recording
// verdicts, facts, and reaching-taint chains per instruction. Replay is
// idempotent: the global environment is already at fixpoint, so the
// walk observes exactly the states the final round computed.
func (p *program) extract() *Result {
	n := len(p.ins)
	r := &Result{
		TextBase:   p.textBase,
		Bailed:     p.bail,
		BailReason: p.bailReason,
		verdicts:   make([]Verdict, n),
		chains:     make([]string, n),
		facts:      make([]uint8, n),
	}
	if len(p.siteBails) > 0 {
		ws := make([]int, 0, len(p.siteBails))
		for w := range p.siteBails {
			ws = append(ws, w)
		}
		sort.Ints(ws)
		for _, w := range ws {
			r.SiteBails = append(r.SiteBails, SiteBail{PC: p.pcOf(w), Reason: p.siteBails[w]})
		}
	}
	if p.bail {
		// Claim nothing: every dereference site may alert.
		for i := 0; i < n; i++ {
			if !p.dec[i] {
				continue
			}
			switch p.ins[i].Op.Kind() {
			case isa.KindLoad, isa.KindStore, isa.KindJumpReg:
				r.verdicts[i] = MayDereferenceTainted
				r.chains[i] = "analysis bailed: " + p.bailReason
			}
		}
		return r
	}
	// A word can be replayed under several block entry states (it sits
	// in a block reached along many paths only via the joined in-state,
	// but call-return replays do revisit); a single tainted observation
	// poisons its facts permanently.
	poisonOps := make([]bool, n)
	poisonAddr := make([]bool, n)
	hook := func(w int, in isa.Instruction, s *state) {
		switch in.Op.Kind() {
		case isa.KindLoad, isa.KindStore, isa.KindJumpReg:
			av := s.regs[in.Rs]
			if av.t == May {
				poisonAddr[w] = true
				r.verdicts[w] = MayDereferenceTainted
				if r.chains[w] == "" {
					r.chains[w] = p.chainText(in.Rs, av)
				}
			} else if r.verdicts[w] == VerdictNone {
				r.verdicts[w] = ProvablyClean
			}
		case isa.KindALU, isa.KindShift:
			a, b := cpu.TaintSources(in)
			if s.regs[a].t == May || s.regs[b].t == May {
				poisonOps[w] = true
			} else {
				r.facts[w] |= FactOperandsClean
			}
		}
	}
	for _, f := range p.funcs {
		for _, b := range f.blocks {
			if !b.inSet {
				continue
			}
			p.walkBlock(f, b, hook)
		}
	}
	for i := 0; i < n; i++ {
		if poisonAddr[i] {
			r.verdicts[i] = MayDereferenceTainted
		} else if r.verdicts[i] == ProvablyClean {
			r.facts[i] |= FactAddrClean
		}
		if poisonOps[i] {
			r.facts[i] &^= FactOperandsClean
		}
	}
	return r
}

// chainText renders a one-line reaching-taint chain for diagnostics.
func (p *program) chainText(reg isa.Register, av absVal) string {
	var origin string
	switch av.why {
	case whySyscall:
		origin = "seeded by external input (read/recv)"
	case whyWild:
		origin = "via a store the analysis could not bound"
	default:
		origin = "from process-entry input (argv/env) or untracked memory"
	}
	if av.src != 0 {
		origin += " at " + p.describePC(av.src)
	}
	return fmt.Sprintf("$%s may be tainted %s", regName(reg), origin)
}

func (p *program) describePC(pc uint32) string {
	loc := fmt.Sprintf("%#x", pc)
	if name, off := p.im.SymbolAt(pc); name != "" {
		loc += fmt.Sprintf(" (%s+%d)", name, off)
	}
	if i := p.idxOf(pc); i >= 0 && p.dec[i] {
		loc += ": " + isa.Disassemble(p.ins[i], pc)
	}
	return loc
}

func regName(r isa.Register) string {
	names := [...]string{
		"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
		"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
		"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
		"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
	}
	if int(r) < len(names) {
		return names[r]
	}
	return fmt.Sprintf("r%d", r)
}

// FuncExtents returns the discovered function layout (name, [start,end)
// pc range) in address order — ptlint uses it for reporting.
func FuncExtents(im *asm.Image, prop taint.Propagator) ([][3]uint32, []string, error) {
	p, err := newProgram(im, prop)
	if err != nil {
		return nil, nil, err
	}
	exts := make([][3]uint32, 0, len(p.funcs))
	names := make([]string, 0, len(p.funcs))
	sorted := append([]*fn(nil), p.funcs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	for _, f := range sorted {
		exts = append(exts, [3]uint32{p.pcOf(f.start), p.pcOf(f.end), 0})
		names = append(names, f.name)
	}
	return exts, names, nil
}
