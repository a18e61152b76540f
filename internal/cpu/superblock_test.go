// Differential tests for the superblock trace tier's deopt edges: every
// specialization assumption (clean addresses, no probes, stable text,
// no armed injection, no coverage regime change) is violated mid-run and
// the machine state must stay byte-identical to the reference
// interpreter — same registers, taint, counters, pipeline timing, and
// memory fingerprint. The scenarios are asm so the trace shapes are
// pinned: a C front end could reorder a loop out of fusable form and
// quietly stop exercising the tier.
package cpu

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/taint"
)

// sbBoot assembles src onto a fresh flat-memory CPU (the regime in which
// superblocks dispatch).
func sbBoot(t *testing.T, src string) (*CPU, *mem.Memory) {
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

// sbCompareState cross-checks the architectural state of a reference and
// a fast run: the full contract of differential_test.go minus the attack
// machinery.
func sbCompareState(t *testing.T, ref, fast *CPU, refM, fastM *mem.Memory, refErr, fastErr error) {
	t.Helper()
	if got, want := fmt.Sprint(fastErr), fmt.Sprint(refErr); got != want {
		t.Fatalf("run error: fast %q, reference %q", got, want)
	}
	if ref.PC() != fast.PC() {
		t.Errorf("pc: fast %#08x, reference %#08x", fast.PC(), ref.PC())
	}
	for r := 0; r < isa.NumRegisters; r++ {
		reg := isa.Register(r)
		if ref.Reg(reg) != fast.Reg(reg) {
			t.Errorf("%v: fast %#x, reference %#x", reg, fast.Reg(reg), ref.Reg(reg))
		}
		if ref.RegTaint(reg) != fast.RegTaint(reg) {
			t.Errorf("%v taint: fast %v, reference %v", reg, fast.RegTaint(reg), ref.RegTaint(reg))
		}
	}
	rs, fs := ref.Stats(), fast.Stats()
	if rs.Instructions != fs.Instructions || rs.Loads != fs.Loads ||
		rs.Stores != fs.Stores || rs.Branches != fs.Branches ||
		rs.Syscalls != fs.Syscalls || rs.Alerts != fs.Alerts {
		t.Errorf("stats differ:\nreference %+v\nfast      %+v", rs, fs)
	}
	if fs.CleanSkips+fs.TaintedSteps != fs.Instructions {
		t.Errorf("fast: CleanSkips(%d) + TaintedSteps(%d) != Instructions(%d)",
			fs.CleanSkips, fs.TaintedSteps, fs.Instructions)
	}
	if ref.Pipe() != fast.Pipe() {
		t.Errorf("pipeline: fast %+v, reference %+v", fast.Pipe(), ref.Pipe())
	}
	if rf, ff := refM.Fingerprint(), fastM.Fingerprint(); rf != ff {
		t.Errorf("memory fingerprint: fast %#x, reference %#x", ff, rf)
	}
}

// sbDiff runs src under both engines (arm, when non-nil, configures each
// machine before its run), cross-checks the final state, and returns the
// fast CPU for tier-specific assertions.
func sbDiff(t *testing.T, src string, arm func(*CPU)) *CPU {
	t.Helper()
	ref, refM := sbBoot(t, src)
	if arm != nil {
		arm(ref)
	}
	refErr := ref.Run(1_000_000)
	fast, fastM := sbBoot(t, src)
	if arm != nil {
		arm(fast)
	}
	fastErr := fast.RunFast(1_000_000)
	sbCompareState(t, ref, fast, refM, fastM, refErr, fastErr)
	return fast
}

// sbHotLoop is a clean counted loop, hot enough (5000
// iterations against a threshold of 64 dispatches) that the fast run
// must spend most of its retirements inside a compiled superblock.
const sbHotLoop = `
main:
	li    $s0, 0
	li    $s1, 5000
loop:
	addiu $s0, $s0, 1
	sll   $t0, $s0, 1
	xor   $t1, $t0, $s0
	slt   $t2, $s0, $s1
	bne   $t2, $zero, loop
` + exitZero

// TestSuperblockCleanLoop pins the baseline: on a clean hot loop the
// tier engages, never deopts, and the final state is byte-identical to
// the reference interpreter.
func TestSuperblockCleanLoop(t *testing.T) {
	fast := sbDiff(t, sbHotLoop, nil)
	s := fast.Stats()
	if s.SuperblockRuns == 0 || s.SuperblockInstrs == 0 {
		t.Errorf("superblock tier never engaged: %d runs, %d instrs", s.SuperblockRuns, s.SuperblockInstrs)
	}
	if s.SuperblockDeopts != 0 {
		t.Errorf("clean loop deopted %d times, want 0", s.SuperblockDeopts)
	}
	if s.SuperblockInstrs < s.Instructions/2 {
		t.Errorf("superblocks retired %d of %d instructions; the hot loop should dominate", s.SuperblockInstrs, s.Instructions)
	}
}

// TestSuperblockCarriesTaintedLoad: every iteration loads a tainted word
// and computes on it. The trace carries the taint bits beside the values
// and applies Table 1 inline, so it never leaves, at full architectural
// fidelity.
func TestSuperblockCarriesTaintedLoad(t *testing.T) {
	const src = `
	.data
	buf:
		.word 0x61626364
		.word 0x65666768
		.word 0x696a6b6c
		.word 0x6d6e6f70
	.text
	main:
		la    $a0, buf
		li    $a1, 16
		li    $v0, 100
		syscall
		li    $s0, 0
		li    $s1, 3000
		la    $s2, buf
	loop:
		andi  $t0, $s0, 12
		addu  $t1, $s2, $t0
		lw    $t2, 0($t1)
		addu  $t4, $t4, $t2
		addiu $s0, $s0, 1
		slt   $t3, $s0, $s1
		bne   $t3, $zero, loop
	` + exitZero
	fast := sbDiff(t, src, nil)
	s := fast.Stats()
	if s.SuperblockDeopts != 0 {
		t.Errorf("tainted loads forced %d deopts, want 0: %+v", s.SuperblockDeopts, s.DeoptReasons())
	}
	if s.SuperblockInstrs < s.Instructions*9/10 {
		t.Errorf("superblocks retired %d of %d instructions; the tainted loop should stay in its trace", s.SuperblockInstrs, s.Instructions)
	}
	if got := fast.RegTaint(isa.RegT4); got != taint.Word {
		t.Errorf("$t4 taint %v, want the loaded words' taint", got)
	}
}

// TestSuperblockTaintedAddressDeopt: once the loop's pointer turns
// tainted, the trace leaves before the load (the checked dereference) and
// the block path raises the same alert, at the same pc and count, as the
// reference interpreter.
func TestSuperblockTaintedAddressDeopt(t *testing.T) {
	const src = `
	.data
	buf:	.word 0, 0, 0, 0
	.text
	main:
		la    $a0, buf
		li    $a1, 4
		li    $v0, 100
		syscall
		la    $s2, buf
		move  $t1, $s2
		li    $s0, 0
		li    $s1, 3000
	loop:
		lw    $t2, 4($t1)
		addiu $s0, $s0, 1
		bne   $s0, $s1, loop
		lw    $t6, 0($s2)
		addu  $t1, $s2, $t6
		li    $s1, 6000
		j     loop
	`
	fast := sbDiff(t, src, nil)
	s := fast.Stats()
	if s.Alerts != 1 || s.SuperblockInstrs == 0 {
		t.Fatalf("want one alert after the trace ran: %+v", s)
	}
	if s.SuperblockDeopts != 1 || s.SbDeoptTaintedAddr != 1 {
		t.Errorf("deopts %d, tainted-address %d; want 1, 1", s.SuperblockDeopts, s.SbDeoptTaintedAddr)
	}
}

// TestSuperblockProbeSuppression: a registered probe means host
// callbacks can observe per-dispatch state, so superblocks must not
// dispatch at all — and the probe must fire the same number of times as
// under the reference interpreter.
func TestSuperblockProbeSuppression(t *testing.T) {
	im, err := asm.AssembleString(sbHotLoop)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	loopPC, ok := im.Symbols["loop"]
	if !ok {
		t.Fatalf("no loop symbol")
	}
	var fires [2]int
	i := 0
	fast := sbDiff(t, sbHotLoop, func(c *CPU) {
		slot := &fires[i]
		i++
		c.AddProbe(loopPC, func(*CPU) { *slot++ })
	})
	if fires[0] == 0 || fires[0] != fires[1] {
		t.Errorf("probe fired %d times on reference, %d on fast; want equal and nonzero", fires[0], fires[1])
	}
	if s := fast.Stats(); s.SuperblockRuns != 0 {
		t.Errorf("superblocks dispatched %d times with a probe registered, want 0", s.SuperblockRuns)
	}
}

// TestSuperblockInjectionInvalidation arms a fault injection that taints
// the loop counter mid-run: the trigger must land at the same retired
// count on both engines (the superblock budget clamp), the compiled
// trace must carry the now-tainted counter, and the runs must converge
// to identical final states.
func TestSuperblockInjectionInvalidation(t *testing.T) {
	fast := sbDiff(t, sbHotLoop, func(c *CPU) {
		c.InjectAt(10_000, func(c *CPU) {
			c.SetReg(isa.RegS0, c.Reg(isa.RegS0), taint.Word)
		})
	})
	if s := fast.Stats(); s.SuperblockRuns == 0 {
		t.Errorf("superblock tier never engaged before the injection")
	}
}

// TestSuperblockSelfModifyInvalidation: the guest patches its own loop
// body (step +1 becomes step +3) after the trace is hot. The store must
// evict the constituent block, kill the compiled superblock, and both
// engines must execute the patched semantics from the next iteration.
func TestSuperblockSelfModifyInvalidation(t *testing.T) {
	const src = `
	main:
		li    $s0, 0
		li    $s1, 2000
		li    $s2, 0
		j     start
	donor:
		addiu $s0, $s0, 3
	start:
	loop:
	patchme:
		addiu $s0, $s0, 1
		slt   $t0, $s0, $s1
		bne   $t0, $zero, loop
		bne   $s2, $zero, finish
		li    $s2, 1
		la    $t7, donor
		lw    $t9, 0($t7)
		la    $t8, patchme
		sw    $t9, 0($t8)
		li    $s1, 8000
		j     loop
	finish:
	` + exitZero
	fast := sbDiff(t, src, nil)
	if got := fast.Reg(isa.RegS0); got != 8000 {
		t.Errorf("$s0 = %d, want 8000 (2000 by +1, then 6000 more by +3)", got)
	}
	if s := fast.Stats(); s.SuperblockRuns == 0 {
		t.Errorf("superblock tier never engaged")
	}
}

// TestSuperblockCovMapAttach attaches a coverage map halfway through a
// hot loop (a harness regime change): compiled superblocks are dropped,
// the recompiled trace records edges inline, and the resulting hit map
// must be byte-identical to the reference interpreter's.
func TestSuperblockCovMapAttach(t *testing.T) {
	run := func(fastPath bool) (*CovMap, *CPU, *mem.Memory, error) {
		c, m := sbBoot(t, sbHotLoop)
		step := c.Run
		if fastPath {
			step = c.RunFast
		}
		err := step(10_000)
		if _, ok := err.(*StepBudgetError); !ok {
			t.Fatalf("first leg: got %v, want StepBudgetError", err)
		}
		cov := new(CovMap)
		c.SetCovMap(cov)
		return cov, c, m, step(1_000_000)
	}
	refCov, ref, refM, refErr := run(false)
	fastCov, fast, fastM, fastErr := run(true)
	sbCompareState(t, ref, fast, refM, fastM, refErr, fastErr)
	if *refCov != *fastCov {
		t.Errorf("coverage maps differ: reference %d edges, fast %d edges", refCov.Edges(), fastCov.Edges())
	}
	if fastCov.Edges() == 0 {
		t.Errorf("no edges recorded after mid-run attach")
	}
	if s := fast.Stats(); s.SuperblockRuns == 0 {
		t.Errorf("superblock tier never engaged")
	}
}

// TestSuperblockForkIsolation: a fork inherits neither its snapshot's
// compiled superblocks nor their heat. Each fork re-heats from zero, then
// compiles the trace or reuses the one a sibling published, and converges
// to the same final state as a reference run of the same program.
func TestSuperblockForkIsolation(t *testing.T) {
	ref, refM := sbBoot(t, sbHotLoop)
	refErr := ref.Run(1_000_000)

	origin, originM := sbBoot(t, sbHotLoop)
	// Heat the origin's superblocks before sharing so the forks start
	// from a snapshot that has a live compiled trace to *not* inherit.
	if err := origin.RunFast(10_000); err != nil {
		if _, ok := err.(*StepBudgetError); !ok {
			t.Fatalf("origin warmup: %v", err)
		}
	}
	if s := origin.Stats(); s.SuperblockRuns == 0 {
		t.Fatalf("origin never compiled a superblock; the fork test needs one")
	}
	origin.ShareText()
	for i := 0; i < 3; i++ {
		fm := originM.Fork()
		f := origin.Fork(fm, &testHandler{memory: fm})
		ferr := f.RunFast(1_000_000)
		sbCompareState(t, ref, f, refM, fm, refErr, ferr)
		if s := f.Stats(); s.SuperblockRuns == 0 {
			t.Errorf("fork %d never re-engaged the superblock tier", i)
		}
	}
}
