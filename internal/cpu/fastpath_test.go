package cpu

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/taint"
)

// runFast is the run helper on the fast path.
func runFast(t *testing.T, policy taint.Policy, src string) (*CPU, error) {
	t.Helper()
	im, err := asm.AssembleString(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New()
	c := New(Config{Bus: m, Policy: policy, Handler: &testHandler{memory: m}, Image: im})
	c.LoadImage(m, im)
	return c, c.RunFast(1_000_000)
}

// buildAt returns the block entered at text word idx as a dispatch would,
// building and publishing it in the block table on its first dispatch.
func buildAt(t *testing.T, c *CPU, idx uint32) *decBlock {
	t.Helper()
	if c.seenAt(idx) {
		return c.text.slots[idx].block.Load()
	}
	b := c.firstDispatch(idx)
	if b == nil {
		t.Fatalf("firstDispatch(%d) = nil", idx)
	}
	return b
}

// blockLive reports whether b is still the block this machine dispatches
// at text word idx.
func blockLive(c *CPU, idx uint32, b *decBlock) bool {
	return c.seenAt(idx) && c.text.slots[idx].block.Load() == b
}

// decodedAt reports whether the decoded instruction at text word idx is
// cached.
func decodedAt(c *CPU, idx uint32) bool {
	return c.text.slots[idx].ins.Load() != nil
}

// straightLine is a long run of 1:1-encoded instructions ending in a clean
// exit, so text word indices map directly to source lines.
const straightLine = `
main:
	addiu $t0, $zero, 1
	addiu $t1, $zero, 2
	addiu $t2, $zero, 3
	addiu $t3, $zero, 4
	addiu $t4, $zero, 5
	addiu $t5, $zero, 6
	addiu $t6, $zero, 7
	addiu $t7, $zero, 8
` + exitZero

func newMachine(t *testing.T, src string) (*CPU, *mem.Memory) {
	t.Helper()
	im, err := asm.AssembleString(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New()
	c := New(Config{Bus: m, Policy: taint.PolicyPointerTaintedness, Handler: &testHandler{memory: m}, Image: im})
	c.LoadImage(m, im)
	return c, m
}

// TestInvalidateTextEvictsSpanningBlocks pins the latent-bug fix: a store
// that overlaps any word of a predecoded block — its interior or tail, not
// just its entry, including width-spanning stores straddling a word
// boundary — must evict the block, and blocks entered at different words
// covering the same text must all go.
func TestInvalidateTextEvictsSpanningBlocks(t *testing.T) {
	c, _ := newMachine(t, straightLine)

	b0 := buildAt(t, c, 0)
	b4 := buildAt(t, c, 4)
	if len(b0.ins) < 8 || len(b4.ins) < 4 {
		t.Fatalf("unexpected block shapes: len(b0)=%d len(b4)=%d", len(b0.ins), len(b4.ins))
	}

	// A 2-byte store straddling words 5 and 6 overlaps the interior of
	// both blocks; neither entry word is touched.
	c.invalidateText(c.textBase+5*4+3, 2)
	if l0, l4 := blockLive(c, 0, b0), blockLive(c, 4, b4); l0 || l4 {
		t.Errorf("spanning store left blocks live: b0=%v b4=%v", l0, l4)
	}
	if decodedAt(c, 5) || decodedAt(c, 6) {
		t.Errorf("spanning store left decoded slots live: [5]=%v [6]=%v", decodedAt(c, 5), decodedAt(c, 6))
	}
	if !decodedAt(c, 4) {
		t.Errorf("store evicted an untouched decoded slot")
	}

	// A store to word 2 is before block 4's entry: only block 0 spans it.
	b0 = buildAt(t, c, 0)
	b4 = buildAt(t, c, 4)
	c.invalidateText(c.textBase+2*4, 4)
	if blockLive(c, 0, b0) {
		t.Errorf("store into word 2 left the block entered at word 0 live")
	}
	if !blockLive(c, 4, b4) {
		t.Errorf("store into word 2 evicted the block entered at word 4")
	}

	// A store that begins below the text segment and overlaps its first
	// bytes must still evict; the out-of-range prefix bytes are ignored.
	b0 = buildAt(t, c, 0)
	c.invalidateText(c.textBase-2, 4)
	if blockLive(c, 0, b0) {
		t.Errorf("store straddling the text base left the first block live")
	}
	if !blockLive(c, 4, b4) {
		t.Errorf("store straddling the text base evicted a later block")
	}

	// A store nowhere near the text segment evicts nothing.
	b0 = buildAt(t, c, 0)
	c.invalidateText(asm.DataBase, 4)
	if !blockLive(c, 0, b0) || !blockLive(c, 4, b4) {
		t.Errorf("data-segment store evicted text blocks")
	}
}

// TestSelfModifyingStoreInSameBlock is the end-to-end regression for
// mid-block self-modification: a store patches an instruction later in its
// own basic block, so the stale predecoded run must be abandoned after the
// store and the patched bytes re-decoded. Both interpreters must see the
// patched instruction (exit 42, not the stale exit 1).
func TestSelfModifyingStoreInSameBlock(t *testing.T) {
	patch, err := isa.Encode(isa.Instruction{Op: isa.OpADDIU, Rs: isa.RegZero, Rt: isa.RegA0, Imm: 42})
	if err != nil {
		t.Fatalf("encode patch: %v", err)
	}
	src := fmt.Sprintf(`
	main:
		la $t0, patch
		li $t1, %#x
		sw $t1, 0($t0)
	patch:
		addiu $a0, $zero, 1
		li $v0, 1
		syscall
	`, patch)

	check := func(t *testing.T, c *CPU, err error) {
		t.Helper()
		var ee *ExitError
		if !errors.As(err, &ee) || ee.Code != 42 {
			t.Fatalf("got %v, want exit status 42 (the patched instruction)", err)
		}
		s := c.Stats()
		if s.CleanSkips+s.TaintedSteps != s.Instructions {
			t.Errorf("CleanSkips(%d) + TaintedSteps(%d) != Instructions(%d)",
				s.CleanSkips, s.TaintedSteps, s.Instructions)
		}
	}
	t.Run("fast", func(t *testing.T) {
		c, err := runFast(t, taint.PolicyPointerTaintedness, src)
		check(t, c, err)
		if c.Stats().BlockMisses < 2 {
			t.Errorf("BlockMisses = %d, want >= 2 (initial decode plus post-patch rebuild)", c.Stats().BlockMisses)
		}
	})
	t.Run("reference", func(t *testing.T) {
		c, err := run(t, taint.PolicyPointerTaintedness, src)
		check(t, c, err)
	})
}

// TestStatsCleanSkipInvariant pins the retirement accounting: on a run
// with tainted inputs the fast path must split retirements between the
// clean short-circuit and the full datapath with nothing lost, and the
// reference path must never report a clean skip.
func TestStatsCleanSkipInvariant(t *testing.T) {
	src := `
	.data
	buf:
		.word 0x11223344
	.text
	main:
		li $s0, 50
	loop:
		addiu $s0, $s0, -1
		bne $s0, $zero, loop
		la $a0, buf
		li $a1, 4
		li $v0, 100
		syscall
		la $t0, buf
		lw $t1, 0($t0)
		add $t2, $t1, $t1
		sll $t3, $t1, 2
		xor $t4, $t1, $t2
	` + exitZero

	t.Run("fast", func(t *testing.T) {
		c, err := runFast(t, taint.PolicyPointerTaintedness, src)
		if err != nil {
			t.Fatal(err)
		}
		s := c.Stats()
		if s.CleanSkips+s.TaintedSteps != s.Instructions {
			t.Fatalf("CleanSkips(%d) + TaintedSteps(%d) != Instructions(%d)",
				s.CleanSkips, s.TaintedSteps, s.Instructions)
		}
		if s.CleanSkips == 0 {
			t.Errorf("CleanSkips = 0; the clean loop should short-circuit")
		}
		if s.TaintedSteps == 0 {
			t.Errorf("TaintedSteps = 0; the tainted tail should run the full datapath")
		}
		if s.BlockMisses == 0 || s.BlockHits == 0 {
			t.Errorf("block cache unused: hits=%d misses=%d", s.BlockHits, s.BlockMisses)
		}
		if r := s.CleanSkipRate(); r <= 0 || r >= 1 {
			t.Errorf("CleanSkipRate = %v, want strictly between 0 and 1", r)
		}
	})
	t.Run("reference", func(t *testing.T) {
		c, err := run(t, taint.PolicyPointerTaintedness, src)
		if err != nil {
			t.Fatal(err)
		}
		s := c.Stats()
		if s.CleanSkips != 0 {
			t.Errorf("reference CleanSkips = %d, want 0", s.CleanSkips)
		}
		if s.CleanSkips+s.TaintedSteps != s.Instructions {
			t.Errorf("CleanSkips(%d) + TaintedSteps(%d) != Instructions(%d)",
				s.CleanSkips, s.TaintedSteps, s.Instructions)
		}
		if s.BlockHits != 0 || s.BlockMisses != 0 {
			t.Errorf("reference run touched the block cache: hits=%d misses=%d", s.BlockHits, s.BlockMisses)
		}
	})
}

// TestRunFastBudgetMidBlock checks budget truncation inside a block: the
// fast path must stop on the budget fault at the same pc and retired count
// as the reference interpreter even when the boundary falls mid-block (and
// the 200-instruction straight line also exceeds maxBlockLen, exercising
// the block-length cap).
func TestRunFastBudgetMidBlock(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("main:\n")
	for i := 0; i < 200; i++ {
		sb.WriteString("\taddiu $t0, $t0, 1\n")
	}
	sb.WriteString("\tj main\n")
	src := sb.String()

	const budget = 150
	refC, _ := newMachine(t, src)
	refErr := refC.Run(budget)
	fastC, _ := newMachine(t, src)
	fastErr := fastC.RunFast(budget)

	var refFault, fastFault *StepBudgetError
	if !errors.As(refErr, &refFault) || !errors.As(fastErr, &fastFault) {
		t.Fatalf("want budget faults, got reference %v, fast %v", refErr, fastErr)
	}
	if *refFault != *fastFault {
		t.Fatalf("fault differs: reference %+v, fast %+v", *refFault, *fastFault)
	}
	if refC.Stats().Instructions != budget || fastC.Stats().Instructions != budget {
		t.Errorf("instructions: reference %d, fast %d, want %d",
			refC.Stats().Instructions, fastC.Stats().Instructions, budget)
	}
	if refC.Reg(isa.RegT0) != fastC.Reg(isa.RegT0) {
		t.Errorf("$t0: reference %d, fast %d", refC.Reg(isa.RegT0), fastC.Reg(isa.RegT0))
	}
}

// TestProbesOnFastPath checks the probe contract: AddProbe flushes the
// block cache, rebuilt blocks stop short of the probed pc so it stays a
// block entry, and a probe in the middle of former straight-line code
// fires exactly as often under RunFast as under Run.
func TestProbesOnFastPath(t *testing.T) {
	c, _ := newMachine(t, straightLine)
	b := buildAt(t, c, 0)

	probePC := c.pc + 4*4 // the fifth instruction
	fastHits := 0
	c.AddProbe(probePC, func(*CPU) { fastHits++ })
	if blockLive(c, 0, b) || c.text.slots[0].block.Load() != nil {
		t.Fatalf("AddProbe left predecoded blocks live")
	}
	if nb := buildAt(t, c, 0); len(nb.ins) != 4 {
		t.Fatalf("rebuilt block has %d instructions, want 4 (stop at the probed pc)", len(nb.ins))
	}
	if err := c.RunFast(1_000_000); err != nil {
		t.Fatal(err)
	}

	refC, _ := newMachine(t, straightLine)
	refHits := 0
	refC.AddProbe(probePC, func(*CPU) { refHits++ })
	if err := refC.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if fastHits != refHits || fastHits != 1 {
		t.Errorf("probe hits: fast %d, reference %d, want 1", fastHits, refHits)
	}
}
