package analysis

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/taint"
)

// block is one basic block: the half-open word-index range [start, end)
// within its function, plus the joined abstract state at its entry.
type block struct {
	start, end int
	in         *state
	inSet      bool
}

// summary is what a function's callers learn about it: the joined
// register state at its return points (translated into each caller's
// coordinates at the call site) and whether it may store tainted data
// through pointers the analysis could not bound — in which case every
// ancestor frame must assume its stack was tainted.
type summary struct {
	returns           bool
	retRegs           [32]absVal
	taintsCallerStack bool
}

// fn is one discovered function: a contiguous extent of text entered
// only through its first instruction (functions are found as JAL
// targets, plus the image entry point).
type fn struct {
	name       string
	start, end int // word-index extent [start, end)
	blocks     []*block
	blockAt    map[int]*block
	entry      *state
	entrySet   bool
	sum        summary
}

// program is the analysis universe for one image: decoded text, the
// function partition, the global memory regions, and the propagation
// configuration whose ablation flags gate the untaint rules.
type program struct {
	im       *asm.Image
	prop     taint.Propagator
	textBase uint32
	ins      []isa.Instruction
	dec      []bool // ins[i] is a valid, nonzero instruction word
	funcs    []*fn
	fnByIdx  map[int]*fn // function start word -> fn
	regions  *regionSet

	// bail abandons precision for the whole image: set when the text
	// contains control flow the model cannot follow soundly (a branch or
	// jump crossing a function boundary, or a diverging fixpoint). The
	// result then claims nothing: no facts, no clean verdicts. An
	// unresolvable JALR is NOT a whole-image bail any more: it degrades
	// to a per-site havoc recorded in siteBails (see doJALR).
	bail       bool
	bailReason string

	// siteBails records per-site precision losses (word index -> reason):
	// indirect calls whose target set could not be bounded to a single
	// function. The image keeps its facts elsewhere; ptlint surfaces the
	// sites.
	siteBails map[int]string

	// envChanged is set whenever shared interprocedural state moves up
	// the lattice (a function entry, a return summary, a global region);
	// the round loop iterates until a full round leaves it false.
	envChanged bool
}

func (p *program) pcOf(w int) uint32 { return p.textBase + uint32(w)*4 }
func (p *program) idxOf(pc uint32) int {
	if pc < p.textBase || (pc-p.textBase)%4 != 0 {
		return -1
	}
	i := int((pc - p.textBase) / 4)
	if i >= len(p.ins) {
		return -1
	}
	return i
}

func (p *program) setBail(reason string) {
	if !p.bail {
		p.bail = true
		p.bailReason = reason
	}
}

func (p *program) setSiteBail(w int, reason string) {
	if p.siteBails == nil {
		p.siteBails = make(map[int]string)
	}
	if _, ok := p.siteBails[w]; !ok {
		p.siteBails[w] = reason
	}
}

// newProgram decodes the text segment and partitions it into functions
// and basic blocks.
func newProgram(im *asm.Image, prop taint.Propagator) (*program, error) {
	if len(im.Segments) == 0 {
		return nil, fmt.Errorf("analysis: image has no segments")
	}
	text := im.Segments[0]
	if len(text.Data)%4 != 0 {
		return nil, fmt.Errorf("analysis: text segment length %d not word-aligned", len(text.Data))
	}
	n := len(text.Data) / 4
	p := &program{
		im:       im,
		prop:     prop,
		textBase: text.Addr,
		ins:      make([]isa.Instruction, n),
		dec:      make([]bool, n),
		fnByIdx:  make(map[int]*fn),
		regions:  newRegionSet(im, text.Addr, text.Addr+uint32(len(text.Data))),
	}
	for i := 0; i < n; i++ {
		w := uint32(text.Data[i*4]) | uint32(text.Data[i*4+1])<<8 |
			uint32(text.Data[i*4+2])<<16 | uint32(text.Data[i*4+3])<<24
		if w == 0 {
			continue // treated as an opaque terminator, like the block builder
		}
		in, err := isa.Decode(w)
		if err != nil {
			continue
		}
		p.ins[i], p.dec[i] = in, true
	}
	p.discoverFunctions()
	for _, f := range p.funcs {
		p.buildBlocks(f)
	}
	return p, nil
}

// discoverFunctions: every JAL target plus the image entry starts a
// function; extents run to the next start. Code reachable only by
// falling past a function boundary does not occur in generated images
// and is handled conservatively (the CFG walk bails on cross-function
// branches).
//
// When the image contains a JALR, address-taken functions are discovered
// too: the assembler materializes a code address only via the
// `lui rd, hi; ori rd, rd, lo` pair (the `la` pseudo-op), so every such
// pair whose constant lands on a decodable text word marks a candidate
// function start. The scan is gated on the JALR's presence so that
// compiler-generated images (which never take code addresses) keep their
// exact JAL-derived partition.
func (p *program) discoverFunctions() {
	starts := map[int]bool{}
	if i := p.idxOf(p.im.Entry); i >= 0 {
		starts[i] = true
	}
	hasJALR := false
	for i, in := range p.ins {
		if p.dec[i] && in.Op == isa.OpJAL {
			if t := p.idxOf(isa.JumpTarget(p.pcOf(i), in)); t >= 0 {
				starts[t] = true
			} else {
				p.setBail(fmt.Sprintf("jal outside text at %#x", p.pcOf(i)))
			}
		}
		if p.dec[i] && in.Op == isa.OpJALR {
			hasJALR = true
		}
	}
	if hasJALR {
		for i := 0; i+1 < len(p.ins); i++ {
			if !p.dec[i] || !p.dec[i+1] {
				continue
			}
			hi, lo := p.ins[i], p.ins[i+1]
			if hi.Op != isa.OpLUI || lo.Op != isa.OpORI || lo.Rs != hi.Rt {
				continue
			}
			addr := hi.UImm()<<16 | lo.UImm()
			if t := p.idxOf(addr); t >= 0 && p.dec[t] {
				starts[t] = true
			}
		}
	}
	order := make([]int, 0, len(starts))
	for s := range starts {
		order = append(order, s)
	}
	sort.Ints(order)
	for i, s := range order {
		end := len(p.ins)
		if i+1 < len(order) {
			end = order[i+1]
		}
		name, _ := p.im.SymbolAt(p.pcOf(s))
		f := &fn{name: name, start: s, end: end, blockAt: make(map[int]*block)}
		p.funcs = append(p.funcs, f)
		p.fnByIdx[s] = f
	}
}

// buildBlocks splits a function at branch targets and after every
// block-ending instruction.
func (p *program) buildBlocks(f *fn) {
	leaders := map[int]bool{f.start: true}
	for i := f.start; i < f.end; i++ {
		if !p.dec[i] {
			if i+1 < f.end {
				leaders[i+1] = true
			}
			continue
		}
		in := p.ins[i]
		switch in.Op.Kind() {
		case isa.KindBranch:
			t := p.idxOf(isa.BranchTarget(p.pcOf(i), in))
			if t < f.start || t >= f.end {
				p.setBail(fmt.Sprintf("branch out of function at %#x", p.pcOf(i)))
			} else {
				leaders[t] = true
			}
		case isa.KindJump:
			if in.Op == isa.OpJ {
				t := p.idxOf(isa.JumpTarget(p.pcOf(i), in))
				if t < f.start || t >= f.end {
					p.setBail(fmt.Sprintf("jump out of function at %#x", p.pcOf(i)))
				} else {
					leaders[t] = true
				}
			}
		}
		if in.Op.EndsBlock() && i+1 < f.end {
			leaders[i+1] = true
		}
	}
	order := make([]int, 0, len(leaders))
	for l := range leaders {
		order = append(order, l)
	}
	sort.Ints(order)
	for i, s := range order {
		end := f.end
		if i+1 < len(order) {
			end = order[i+1]
		}
		b := &block{start: s, end: end}
		f.blocks = append(f.blocks, b)
		f.blockAt[s] = b
	}
}

// fnContaining returns the function whose extent covers word index w.
func (p *program) fnContaining(w int) *fn {
	i := sort.Search(len(p.funcs), func(i int) bool { return p.funcs[i].start > w })
	if i == 0 {
		return nil
	}
	f := p.funcs[i-1]
	if w >= f.end {
		return nil
	}
	return f
}

// regionSet tracks may-taint per global memory region, flow-insensitively:
// the text segment, the data segment split at every symbol, and the heap.
// The stack segment is not a region — it is modeled flow-sensitively by
// the per-function slot maps, with kStackAny as the catch-all.
type regionSet struct {
	starts  []uint32 // sorted region start addresses
	ends    []uint32
	names   []string
	t       []Taint
	src     []uint32
	why     []uint8
	stackLo uint32
}

func newRegionSet(im *asm.Image, textBase, textEnd uint32) *regionSet {
	type bound struct {
		addr uint32
		name string
	}
	var data []bound
	for name, addr := range im.Symbols {
		if addr >= asm.DataBase && addr < im.DataEnd {
			data = append(data, bound{addr, name})
		}
	}
	sort.Slice(data, func(i, j int) bool {
		if data[i].addr != data[j].addr {
			return data[i].addr < data[j].addr
		}
		return data[i].name < data[j].name
	})
	r := &regionSet{stackLo: asm.StackTop - asm.StackSize}
	add := func(start, end uint32, name string) {
		if end > start {
			r.starts = append(r.starts, start)
			r.ends = append(r.ends, end)
			r.names = append(r.names, name)
		}
	}
	add(textBase, textEnd, ".text")
	prev := uint32(asm.DataBase)
	prevName := ".data"
	for _, b := range data {
		if b.addr > prev {
			add(prev, b.addr, prevName)
			prev, prevName = b.addr, b.name
		} else if b.addr == prev {
			prevName = b.name
		}
	}
	if im.DataEnd > prev {
		add(prev, im.DataEnd, prevName)
	}
	add(im.DataEnd, r.stackLo, ".heap")
	r.t = make([]Taint, len(r.starts))
	r.src = make([]uint32, len(r.starts))
	r.why = make([]uint8, len(r.starts))
	return r
}

// find returns the region index containing addr, or -1 (stack range or
// unmapped).
func (r *regionSet) find(addr uint32) int {
	i := sort.Search(len(r.starts), func(i int) bool { return r.starts[i] > addr })
	if i == 0 {
		return -1
	}
	if addr >= r.ends[i-1] {
		return -1
	}
	return i - 1
}

func (r *regionSet) inStack(addr uint32) bool { return addr >= r.stackLo }

// loadTaint joins the taint of every region overlapping [addr, addr+w).
func (r *regionSet) loadTaint(addr uint32, w int) (Taint, uint32, uint8) {
	t, src, why := Clean, uint32(0), whyNone
	for i := range r.starts {
		if r.starts[i] < addr+uint32(w) && r.ends[i] > addr {
			t |= r.t[i]
			if src == 0 {
				src, why = r.src[i], r.why[i]
			}
		}
	}
	return t, src, why
}

// taintRange marks every region overlapping [addr, end) tainted.
// end == 0 means "unbounded upward" (an input read whose length the
// analysis could not resolve).
func (r *regionSet) taintRange(addr, end, src uint32, why uint8) bool {
	changed := false
	for i := range r.starts {
		if r.ends[i] <= addr {
			continue
		}
		if end != 0 && r.starts[i] >= end {
			continue
		}
		if r.t[i] != May {
			r.t[i] = May
			r.src[i], r.why[i] = src, why
			changed = true
		}
	}
	return changed
}

// taintAll marks every region tainted: a tainted store through a fully
// unknown pointer.
func (r *regionSet) taintAll(src uint32, why uint8) bool {
	return r.taintRange(0, 0, src, why)
}

// anyTainted reports whether any region is tainted, with a
// representative source for diagnostics.
func (r *regionSet) anyTainted() (Taint, uint32, uint8) {
	for i := range r.t {
		if r.t[i] == May {
			return May, r.src[i], r.why[i]
		}
	}
	return Clean, 0, whyNone
}
