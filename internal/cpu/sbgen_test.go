// Generated-program differential for the superblock tier. A
// structure-aware generator writes loop nests whose inner loops run hot
// enough to compile into superblocks, over bodies that mix clean and
// tainted arithmetic, loads and stores at clean and tainted addresses,
// SLT-family compares on loaded values (so register memory homes are
// live when the compare untaints), forward branches, and, between inner
// loops, `read` syscalls into the bytes a register was just loaded from
// and fresh memory taint. Each program runs on the reference interpreter,
// the block-only fast path (SetSuperblocks(false)) and the full fast
// path; the three must agree on alerts, architectural counters,
// pipeline, memory fingerprint, coverage, registers, trace events and
// the tainted home bytes compare untaints wrote through to, and
// block-only and full must agree on CleanSkips and TaintedSteps. Every
// engine runs with the home-mirror audit armed.
//
// testdata/sbgen-corpus.txt holds the seeds go test replays. The corpus
// must drive every superblock deopt reason and both arms of each taint
// test in runSuperblock; TestSuperblockGenCorpus fails when it stops
// doing so.
package cpu

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/taint"
)

const sbgenCorpusFile = "testdata/sbgen-corpus.txt"

// sbgenBudget bounds one generated run; a program that reaches it stops on
// the same StepBudgetError on every engine.
const sbgenBudget = 100_000

// genPool is the register file generated bodies read and write. $s5 and
// $s6 hold the loop counters, $s7 the buffer base, $t8/$t9 addresses:
// none of them is ever loaded or tainted, so every loop terminates.
var genPool = []isa.Register{
	isa.RegT0, isa.RegT0 + 1, isa.RegT0 + 2, isa.RegT0 + 3, isa.RegT0 + 4,
	isa.RegT0 + 5, isa.RegT0 + 6, isa.RegT0 + 7,
	isa.RegS0, isa.RegS0 + 1, isa.RegS0 + 2, isa.RegS0 + 3, isa.RegS0 + 4,
}

var genALURR = []string{"addu", "add", "subu", "sub", "and", "or", "xor", "nor",
	"mul", "div", "divu", "rem", "remu", "slt", "sltu", "sllv", "srlv", "srav"}

// genReg is one register's initial value and taint.
type genReg struct {
	r isa.Register
	v uint32
	t taint.Vec
}

// genProg is one generated program and the machine set-up it runs under.
type genProg struct {
	seed   uint64
	src    string
	policy taint.Policy
	regs   []genReg
	watch  bool   // a taint watch over buf[128:192)
	events bool   // provenance and an event sink attached
	input  []byte // the byte stream the read syscall delivers
	prop   taint.Propagator
}

// gen writes one program's text.
type gen struct {
	r        *rand.Rand
	b        strings.Builder
	labels   int
	lastLoad string // the register the last generated load wrote
}

func (g *gen) emit(format string, args ...any) { fmt.Fprintf(&g.b, "\t"+format+"\n", args...) }

func (g *gen) label() string {
	g.labels++
	return fmt.Sprintf("L%d", g.labels)
}

func (g *gen) reg() string { return genPool[g.r.IntN(len(genPool))].String() }

// addr leaves a buffer address in $t9 for an access of width w: indexed
// by the inner loop counter (a clean address) or, rarely, by a pool
// register, whose taint then reaches the address.
func (g *gen) addr(w int) {
	idx := "$s6"
	if g.r.IntN(100) < 8 {
		idx = g.reg()
	}
	if g.r.IntN(2) == 0 {
		g.emit("sll   $t9, %s, %d", idx, g.r.IntN(3))
		idx = "$t9"
	}
	g.emit("andi  $t9, %s, %#x", idx, 0xFF&^(w-1))
	g.emit("addu  $t9, $s7, $t9")
}

func (g *gen) load(rd string) {
	ops := []struct {
		op string
		w  int
	}{{"lw", 4}, {"lw", 4}, {"lh", 2}, {"lhu", 2}, {"lb", 1}, {"lbu", 1}}
	o := ops[g.r.IntN(len(ops))]
	g.addr(o.w)
	g.emit("%s %s, 0($t9)", o.op, rd)
	g.lastLoad = rd
}

func (g *gen) store() {
	ops := []struct {
		op string
		w  int
	}{{"sw", 4}, {"sw", 4}, {"sh", 2}, {"sb", 1}}
	o := ops[g.r.IntN(len(ops))]
	g.addr(o.w)
	g.emit("%s %s, 0($t9)", o.op, g.reg())
}

func (g *gen) compare(r string) {
	switch g.r.IntN(4) {
	case 0:
		g.emit("slti  %s, %s, %d", g.reg(), r, g.r.IntN(512)-256)
	case 1:
		g.emit("sltiu %s, %s, %d", g.reg(), r, g.r.IntN(512))
	case 2:
		g.emit("slt   %s, %s, %s", g.reg(), r, g.reg())
	default:
		g.emit("sltu  %s, %s, %s", g.reg(), g.reg(), r)
	}
}

func (g *gen) alu() {
	if g.r.IntN(5) < 3 {
		op := genALURR[g.r.IntN(len(genALURR))]
		a := g.reg()
		b := a // the XOR idiom and friends, now and then
		if g.r.IntN(8) != 0 {
			b = g.reg()
		}
		g.emit("%s %s, %s, %s", op, g.reg(), a, b)
		return
	}
	switch g.r.IntN(7) {
	case 0:
		g.emit("addiu %s, %s, %d", g.reg(), g.reg(), g.r.IntN(65536)-32768)
	case 1:
		g.emit("andi  %s, %s, %#x", g.reg(), g.reg(), g.r.IntN(65536))
	case 2:
		g.emit("ori   %s, %s, %#x", g.reg(), g.reg(), g.r.IntN(65536))
	case 3:
		g.emit("xori  %s, %s, %#x", g.reg(), g.reg(), g.r.IntN(65536))
	case 4:
		g.emit("lui   %s, %#x", g.reg(), g.r.IntN(65536))
	default:
		sh := []string{"sll", "srl", "sra"}[g.r.IntN(3)]
		g.emit("%s   %s, %s, %d", sh, g.reg(), g.reg(), g.r.IntN(32))
	}
}

// bodyOp emits one generated operation of an inner loop body.
func (g *gen) bodyOp(branchOK bool) {
	switch n := g.r.IntN(100); {
	case n < 30:
		g.alu()
	case n < 48:
		g.load(g.reg())
	case n < 60:
		g.store()
	case n < 76: // a compare on a freshly loaded value: its home is live
		r := g.reg()
		g.load(r)
		g.compare(r)
	case n < 84: // a compare on whatever the register holds now
		g.compare(g.reg())
	case n < 94 && branchOK:
		l := g.label()
		switch g.r.IntN(4) {
		case 0:
			g.emit("beq   %s, %s, %s", g.reg(), g.reg(), l)
		case 1:
			g.emit("bne   %s, %s, %s", g.reg(), g.reg(), l)
		case 2:
			g.emit("%s  %s, %s", []string{"blez", "bgtz"}[g.r.IntN(2)], g.reg(), l)
		default:
			g.emit("%s  %s, %s", []string{"bltz", "bgez"}[g.r.IntN(2)], g.reg(), l)
		}
		for k := 1 + g.r.IntN(2); k > 0; k-- {
			g.bodyOp(false)
		}
		fmt.Fprintf(&g.b, "%s:\n", l)
	default:
		g.emit("nop")
	}
}

// genProgram builds the program of one seed.
func genProgram(seed uint64) genProg {
	r := rand.New(rand.NewPCG(seed, 0x5b9e_c0de))
	g := &gen{r: r}
	p := genProg{seed: seed, policy: taint.PolicyPointerTaintedness}
	switch n := r.IntN(10); {
	case n == 0:
		p.policy = taint.PolicyOff
	case n < 3:
		p.policy = taint.PolicyControlDataOnly
	}
	p.watch = r.IntN(4) == 0
	p.events = r.IntN(4) == 0
	p.input = make([]byte, 64)
	for i := range p.input {
		p.input[i] = byte(r.Uint32())
	}
	for _, reg := range genPool {
		gr := genReg{r: reg, v: r.Uint32()}
		if r.IntN(3) == 0 {
			gr.v &= 0xFF
		}
		if r.IntN(4) == 0 {
			gr.t = taint.Vec(1 + r.IntN(15))
		}
		p.regs = append(p.regs, gr)
	}
	selfModify := r.IntN(6) == 0
	misaligned := r.IntN(4) == 0

	fmt.Fprintf(&g.b, "\t.data\nbuf:\n")
	for i := 0; i < 64; i += 8 {
		ws := make([]string, 8)
		for j := range ws {
			ws[j] = fmt.Sprintf("%#x", r.Uint32()>>uint(r.IntN(32)))
		}
		g.emit(".word %s", strings.Join(ws, ", "))
	}
	fmt.Fprintf(&g.b, "\t.text\nmain:\n")
	g.emit("la    $s7, buf")
	g.emit("move  $t9, $s7")
	taintMem := func() {
		if r.IntN(2) == 0 {
			g.emit("addiu $a0, $s7, %d", r.IntN(256))
		} else {
			g.emit("move  $a0, $t9")
		}
		g.emit("li    $a1, %d", 1+r.IntN(16))
		g.emit("li    $v0, 100")
		g.emit("syscall")
	}
	for k := r.IntN(3); k > 0; k-- {
		taintMem()
	}
	g.emit("li    $s5, %d", 2+r.IntN(5))
	fmt.Fprintf(&g.b, "outer:\n")
	loops := 1 + r.IntN(2)
	for l := 0; l < loops; l++ {
		inner := fmt.Sprintf("inner%d", l)
		g.emit("li    $s6, %d", 40+r.IntN(61))
		if r.IntN(2) == 0 {
			// Enter through a jump, so the first iteration dispatches the
			// loop head too (it would otherwise run inside this block).
			g.emit("j     %s", inner)
		}
		fmt.Fprintf(&g.b, "%s:\n", inner)
		n := 3 + r.IntN(14)
		sm, ma := -1, -1
		if selfModify && l == 0 {
			sm = r.IntN(n)
		}
		if misaligned && l == loops-1 {
			ma = 0
		}
		if l > 0 && g.lastLoad != "" && r.IntN(2) == 0 {
			// The first op compares the register the previous loop
			// loaded last, whose home the writes between the loops hit.
			g.compare(g.lastLoad)
		}
		for i := 0; i < n; i++ {
			if i == sm {
				// Rewrite a text word with itself: a guest store into text.
				g.emit("la    $t8, %s", []string{"spare", inner}[r.IntN(2)])
				g.emit("lw    $t9, 0($t8)")
				g.emit("sw    $t9, 0($t8)")
			}
			if i == ma {
				// Misaligned by two late in the last outer pass only,
				// long after the loop has compiled.
				g.emit("sltiu $t9, $s5, 2")
				g.emit("sltiu $t8, $s6, %d", 1+r.IntN(30))
				g.emit("and   $t9, $t9, $t8")
				g.emit("sll   $t9, $t9, 1")
				g.emit("addu  $t9, $s7, $t9")
				if r.IntN(2) == 0 {
					g.emit("lw    %s, 0($t9)", g.reg())
				} else {
					g.emit("sw    %s, 0($t9)", g.reg())
				}
			}
			g.bodyOp(true)
		}
		g.emit("addiu $s6, $s6, -1")
		g.emit("bne   $s6, $zero, %s", inner)
		// Between inner loops: input into the bytes the last access
		// touched (often a register's live home), fresh memory taint, and
		// compares on registers whose homes those writes may have hit.
		if r.IntN(5) < 3 {
			g.emit("move  $a0, $t9")
			g.emit("li    $a1, %d", 1+r.IntN(8))
			g.emit("li    $v0, 3")
			g.emit("syscall")
		}
		if r.IntN(5) < 2 {
			taintMem()
		}
		for k := r.IntN(3); k > 0; k-- {
			g.compare(g.reg())
		}
	}
	g.emit("addiu $s5, $s5, -1")
	g.emit("bne   $s5, $zero, outer")
	g.emit("li    $v0, 1")
	g.emit("li    $a0, 0")
	g.emit("syscall")
	fmt.Fprintf(&g.b, "spare:\n")
	g.emit("nop")
	p.src = g.b.String()
	// Now and then a Table 1 ablation, so traces apply every rule variant.
	if r.IntN(4) == 0 {
		p.prop = taint.Propagator{
			DisableCompareUntaint: r.IntN(3) == 0,
			DisableAndUntaint:     r.IntN(3) == 0,
			DisableXorIdiom:       r.IntN(3) == 0,
			DisableShiftSmear:     r.IntN(3) == 0,
			WordGranularity:       r.IntN(3) == 0,
			EnableBranchUntaint:   r.IntN(2) == 0,
			// New switches go last, so existing seeds keep their programs.
			DisableHomeWriteThrough: r.IntN(3) == 0,
		}
	}
	return p
}

// genHandler serves the generated programs' syscalls: $v0=1 exits,
// $v0=3 reads $a1 input bytes to $a0 through the host-write path the
// kernel's copy-out takes, $v0=100 taints $a1 bytes at $a0 in place.
type genHandler struct {
	m     *mem.Memory
	input []byte
	off   int
}

func (h *genHandler) Syscall(c *CPU) error {
	switch c.Reg(isa.RegV0) {
	case 1:
		c.Halt(int32(c.Reg(isa.RegA0)))
		return nil
	case 3:
		addr, n := c.Reg(isa.RegA0), int(c.Reg(isa.RegA1))
		data := make([]byte, n)
		for i := range data {
			data[i] = h.input[(h.off+i)%len(h.input)]
		}
		h.m.WriteBytes(addr, data, true)
		c.HostWrote(addr, n)
		c.ProvInput("read", 0, uint64(h.off), addr, n)
		h.off += n
		c.SetReg(isa.RegV0, uint32(n), taint.None)
		return nil
	case 100:
		h.m.TaintRange(c.Reg(isa.RegA0), int(c.Reg(isa.RegA1)))
		return nil
	}
	return &Fault{PC: c.PC(), Reason: "unknown generated syscall"}
}

// genEngine names one of the three engines a generated program runs on.
type genEngine int

const (
	genReference genEngine = iota
	genBlockOnly
	genFull
)

func (e genEngine) String() string {
	return [...]string{"reference", "block-only", "full"}[e]
}

// genResult is everything the engines must agree on after one run.
type genResult struct {
	err    string
	alert  string
	pc     uint32
	halted bool
	stats  Stats
	pipe   PipelineStats
	mem    uint64
	cov    *CovMap
	regs   [isa.NumRegisters]uint32
	taints [isa.NumRegisters]taint.Vec
	events []Event
	// audited counts the home write-throughs checked by the home-mirror
	// invariant; stale is its first violation.
	audited      uint64
	stale        error
	homeUntaints uint64
	// arms counts the runSuperblock taint-test arms taken (sbArm).
	arms *sbArmCount
}

// run boots p on engine e and runs it to completion or the budget.
func (p *genProg) run(t testing.TB, e genEngine) genResult {
	t.Helper()
	im, err := asm.AssembleString(p.src)
	if err != nil {
		t.Fatalf("seed %d: assemble: %v\n%s", p.seed, err, p.src)
	}
	m := mem.New()
	c := New(Config{Bus: m, Policy: p.policy, Prop: p.prop, Handler: &genHandler{m: m, input: p.input}, Image: im})
	c.LoadImage(m, im)
	for _, r := range p.regs {
		c.SetReg(r.r, r.v, r.t)
	}
	if p.watch {
		c.AddTaintWatch(im.Symbols["buf"]+128, 64, "watched")
	}
	if p.events {
		if err := c.EnableProvenance(); err != nil {
			t.Fatal(err)
		}
		c.EnableEvents(1024)
	}
	cov := new(CovMap)
	c.SetCovMap(cov)
	audit := AuditHomes(c)
	res := genResult{arms: new(sbArmCount)}
	c.sbArms = res.arms
	var runErr error
	switch e {
	case genReference:
		runErr = c.Run(sbgenBudget)
	case genBlockOnly:
		c.SetSuperblocks(false)
		runErr = c.RunFast(sbgenBudget)
	default:
		runErr = c.RunFast(sbgenBudget)
	}
	res.err = fmt.Sprint(runErr)
	res.pc = c.PC()
	res.stats = c.Stats()
	res.pipe = c.Pipe()
	res.mem = m.Fingerprint()
	res.cov = cov
	res.regs = c.regs
	res.homeUntaints = c.HomeUntaints()
	res.halted, _ = c.Halted()
	res.audited, res.stale = audit()
	res.taints = c.regTaint
	var a *SecurityAlert
	if errors.As(runErr, &a) {
		plain := *a
		plain.Provenance = nil
		res.alert = fmt.Sprintf("%+v", plain)
		if a.Provenance != nil {
			res.alert += "\n" + a.Provenance.String()
		}
	}
	if c.events != nil {
		res.events = c.events.Events()
	}
	return res
}

// genCompare fails t unless got (engine e) matches the reference run.
func genCompare(t testing.TB, seed uint64, e genEngine, ref, got genResult) {
	t.Helper()
	fail := func(what string, r, g any) {
		t.Errorf("seed %d, %s engine: %s differs:\n reference %+v\n %-10s %+v", seed, e, what, r, e, g)
	}
	if got.err != ref.err {
		fail("run error", ref.err, got.err)
	}
	if got.alert != ref.alert {
		fail("alert", ref.alert, got.alert)
	}
	if got.pc != ref.pc || got.halted != ref.halted {
		fail("pc/halt", fmt.Sprintf("%#x %v", ref.pc, ref.halted), fmt.Sprintf("%#x %v", got.pc, got.halted))
	}
	rs, gs := ref.stats, got.stats
	if rs.Instructions != gs.Instructions || rs.Loads != gs.Loads || rs.Stores != gs.Stores ||
		rs.Branches != gs.Branches || rs.Syscalls != gs.Syscalls || rs.Alerts != gs.Alerts {
		fail("architectural stats", rs, gs)
	}
	if gs.CleanSkips+gs.TaintedSteps != gs.Instructions {
		t.Errorf("seed %d, %s engine: CleanSkips(%d) + TaintedSteps(%d) != Instructions(%d)",
			seed, e, gs.CleanSkips, gs.TaintedSteps, gs.Instructions)
	}
	var sum uint64
	for _, d := range gs.DeoptReasons() {
		sum += d.Count
	}
	if sum != gs.SuperblockDeopts {
		t.Errorf("seed %d, %s engine: deopt reasons sum to %d, SuperblockDeopts %d", seed, e, sum, gs.SuperblockDeopts)
	}
	if got.pipe != ref.pipe {
		fail("pipeline", ref.pipe, got.pipe)
	}
	if got.mem != ref.mem {
		fail("memory fingerprint", ref.mem, got.mem)
	}
	if *got.cov != *ref.cov {
		fail("coverage", ref.cov.Edges(), got.cov.Edges())
	}
	if got.regs != ref.regs || got.taints != ref.taints {
		fail("registers", fmt.Sprint(ref.regs, ref.taints), fmt.Sprint(got.regs, got.taints))
	}
	if !reflect.DeepEqual(got.events, ref.events) {
		fail("events", len(ref.events), len(got.events))
	}
	if got.homeUntaints != ref.homeUntaints {
		fail("tainted home bytes untainted", ref.homeUntaints, got.homeUntaints)
	}
	if got.stale != nil {
		t.Errorf("seed %d, %s engine: stale register home: %v", seed, e, got.stale)
	}
}

// genCheck runs one seed on all three engines and cross-checks them. It
// returns the full engine's result.
func genCheck(t testing.TB, seed uint64) genResult {
	t.Helper()
	p := genProgram(seed)
	ref := p.run(t, genReference)
	if ref.stale != nil {
		t.Errorf("seed %d, reference engine: stale register home: %v", seed, ref.stale)
	}
	block := p.run(t, genBlockOnly)
	full := p.run(t, genFull)
	genCompare(t, seed, genBlockOnly, ref, block)
	genCompare(t, seed, genFull, ref, full)
	if block.stats.CleanSkips != full.stats.CleanSkips || block.stats.TaintedSteps != full.stats.TaintedSteps {
		t.Errorf("seed %d: clean skips / tainted steps: block-only %d/%d, full %d/%d", seed,
			block.stats.CleanSkips, block.stats.TaintedSteps, full.stats.CleanSkips, full.stats.TaintedSteps)
	}
	if block.stats.SuperblockRuns != 0 {
		t.Errorf("seed %d: block-only engine entered %d superblocks", seed, block.stats.SuperblockRuns)
	}
	return full
}

// readGenCorpus returns the checked-in seeds.
func readGenCorpus(t testing.TB) []uint64 {
	t.Helper()
	f, err := os.Open(sbgenCorpusFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var seeds []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", sbgenCorpusFile, err)
		}
		seeds = append(seeds, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return seeds
}

// TestSuperblockGenCorpus replays the checked-in seeds on all three
// engines, then fails loudly unless the corpus as a whole reached the
// superblock tier, drove every deopt reason, and took both arms of every
// taint test in runSuperblock.
func TestSuperblockGenCorpus(t *testing.T) {
	seeds := readGenCorpus(t)
	var total Stats
	var audited uint64
	var arms [numSbArms]uint64
	hits := make([]uint64, len(total.DeoptReasons()))
	for _, s := range seeds {
		full := genCheck(t, s)
		st := full.stats
		audited += full.audited
		for i, n := range full.arms.taken {
			arms[i] += n
		}
		total.SuperblockInstrs += st.SuperblockInstrs
		total.Instructions += st.Instructions
		for i, d := range st.DeoptReasons() {
			hits[i] += d.Count
		}
	}
	t.Logf("%d programs, %d instructions, %d in superblocks, %d home write-throughs audited",
		len(seeds), total.Instructions, total.SuperblockInstrs, audited)
	if audited == 0 {
		t.Errorf("no compare untaint ever wrote through to a home; the home-mirror invariant went unchecked")
	}
	if total.SuperblockInstrs*4 < total.Instructions {
		t.Errorf("superblocks retired %d of %d instructions; the corpus no longer reaches the tier",
			total.SuperblockInstrs, total.Instructions)
	}
	armNames := [...]string{"alu", "compare", "load-address", "load-value", "store-address", "store-value", "branch"}
	for i, n := range arms {
		arm := fmt.Sprintf("%s/%s", armNames[i/2], [...]string{"clean", "tainted"}[i%2])
		t.Logf("arm %-22s %d", arm, n)
		if n == 0 {
			t.Errorf("the corpus never takes the %s arm of runSuperblock's taint tests", arm)
		}
	}
	for i, d := range total.DeoptReasons() {
		t.Logf("deopt %-14s %d", d.Reason, hits[i])
		if hits[i] == 0 {
			t.Errorf("the corpus never drives the %q deopt", d.Reason)
		}
	}
}

// FuzzSuperblockGen runs generated programs from fuzzed seeds on all
// three engines; the checked-in corpus seeds it.
func FuzzSuperblockGen(f *testing.F) {
	for _, s := range readGenCorpus(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		genCheck(t, seed)
	})
}
