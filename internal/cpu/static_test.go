package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/taint"
)

// allCleanFacts builds the fact vector a sound analyzer would produce
// for a program that never touches tainted data: every ALU/shift word
// gets FactOperandsClean, every load/store/jr gets FactAddrClean.
func allCleanFacts(im *asm.Image) []uint8 {
	text := im.Segments[0].Data
	facts := make([]uint8, (len(text)+3)/4)
	for i := range facts {
		w := uint32(text[i*4]) | uint32(text[i*4+1])<<8 |
			uint32(text[i*4+2])<<16 | uint32(text[i*4+3])<<24
		in, err := isa.Decode(w)
		if w == 0 || err != nil {
			continue
		}
		switch in.Op.Kind() {
		case isa.KindALU, isa.KindShift:
			facts[i] |= FactOperandsClean
		case isa.KindLoad, isa.KindStore, isa.KindJumpReg:
			facts[i] |= FactAddrClean
		}
	}
	return facts
}

const cleanLoop = `
	.data
buf:	.word 0, 0, 0, 0
	.text
main:
	la $t0, buf
	li $t1, 0
	li $t2, 100
loop:
	sll $t3, $t1, 2
	addu $t4, $t0, $t3
	lw $t5, 0($t4)
	addiu $t5, $t5, 1
	sw $t5, 0($t4)
	addiu $t1, $t1, 1
	bne $t1, $t2, loop
` + exitZero

// TestStaticFactsSkip runs a clean-only workload with and without static
// facts: identical architectural results, but the facts run must retire
// instructions through the static skip path.
func TestStaticFactsSkip(t *testing.T) {
	im, err := asm.AssembleString(cleanLoop)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	runOne := func(withFacts bool) *CPU {
		m := mem.New()
		c := New(Config{Bus: m, Policy: taint.PolicyPointerTaintedness,
			Handler: &testHandler{memory: m}, Image: im})
		c.LoadImage(m, im)
		if withFacts {
			c.SetStaticFacts(allCleanFacts(im))
		}
		if err := c.RunFast(1_000_000); err != nil {
			t.Fatalf("run(facts=%v): %v", withFacts, err)
		}
		return c
	}
	plain := runOne(false)
	facts := runOne(true)

	if got := facts.Stats().StaticCleanSkips; got == 0 {
		t.Fatalf("StaticCleanSkips = 0 with facts installed")
	}
	if plain.Stats().StaticCleanSkips != 0 {
		t.Fatalf("StaticCleanSkips = %d without facts", plain.Stats().StaticCleanSkips)
	}
	ps, fs := plain.Stats(), facts.Stats()
	if ps.Instructions != fs.Instructions || ps.Loads != fs.Loads ||
		ps.Stores != fs.Stores || ps.Branches != fs.Branches {
		t.Fatalf("architectural counters diverge: %+v vs %+v", ps, fs)
	}
	if fs.CleanSkips+fs.TaintedSteps != fs.Instructions {
		t.Fatalf("CleanSkips(%d) + TaintedSteps(%d) != Instructions(%d)",
			fs.CleanSkips, fs.TaintedSteps, fs.Instructions)
	}
	for r := 0; r < isa.NumRegisters; r++ {
		if plain.Reg(isa.Register(r)) != facts.Reg(isa.Register(r)) {
			t.Fatalf("register %d diverges: %#x vs %#x",
				r, plain.Reg(isa.Register(r)), facts.Reg(isa.Register(r)))
		}
	}
}

// TestStaticFactsLengthMismatch: a fact vector that does not match the
// text layout must be rejected outright.
func TestStaticFactsLengthMismatch(t *testing.T) {
	c, m := newMachine(t, straightLine)
	_ = m
	c.SetStaticFacts(make([]uint8, c.text.words()+1))
	if c.staticFacts != nil {
		t.Fatalf("mismatched fact vector was installed")
	}
}

// TestStaticFactsDroppedOnProbe: a probe can rewrite registers and taint
// behind the analysis, so registering one must drop the facts.
func TestStaticFactsDroppedOnProbe(t *testing.T) {
	c, _ := newMachine(t, straightLine)
	c.SetStaticFacts(make([]uint8, c.text.words()))
	if c.staticFacts == nil {
		t.Fatalf("facts not installed")
	}
	c.AddProbe(c.textBase+4, func(*CPU) {})
	if c.staticFacts != nil {
		t.Fatalf("facts survived AddProbe")
	}
}

// TestStaticFactsDroppedOnSelfModify: a store into text voids the
// whole-program analysis.
func TestStaticFactsDroppedOnSelfModify(t *testing.T) {
	c, _ := newMachine(t, straightLine)
	c.SetStaticFacts(make([]uint8, c.text.words()))
	c.invalidateText(c.textBase+8, 4)
	if c.staticFacts != nil {
		t.Fatalf("facts survived a text store")
	}
	for i := range c.text.slots {
		if c.text.slots[i].block.Load() != nil {
			t.Fatalf("blocks survived the fact drop")
		}
	}
}

// TestForkAliasesFacts: forks inherit the (read-only) fact vector.
func TestForkAliasesFacts(t *testing.T) {
	im, err := asm.AssembleString(cleanLoop)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New()
	c := New(Config{Bus: m, Policy: taint.PolicyPointerTaintedness,
		Handler: &testHandler{memory: m}, Image: im})
	c.LoadImage(m, im)
	c.SetStaticFacts(allCleanFacts(im))

	m.Freeze()
	m2 := m.Fork()
	f := c.Fork(m2, &testHandler{memory: m2})
	if err := f.RunFast(1_000_000); err != nil {
		t.Fatalf("fork run: %v", err)
	}
	if f.Stats().StaticCleanSkips == 0 {
		t.Fatalf("forked CPU did not use the inherited facts")
	}
	// The fork dropping its facts must not disturb the parent.
	f.AddProbe(f.textBase, func(*CPU) {})
	if c.staticFacts == nil {
		t.Fatalf("parent lost its facts to the fork's probe")
	}
}
