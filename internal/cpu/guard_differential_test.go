// Watchdog and containment semantics, cross-checked between interpreters:
// a runaway guest must trip the step budget (or the memory limit) at the
// same deterministic point under the reference interpreter, the block
// fast path, and forks of a snapshot — a Timeout verdict that depends on
// which engine or fork ran the session would poison campaign reports.
package cpu_test

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/taint"
)

// bootASM boots a raw assembly image on the shared machine assembler.
func bootASM(t *testing.T, src string, opts attack.Options) *attack.Machine {
	t.Helper()
	im, err := asm.AssembleString(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	opts.ProgName = "watchdog"
	m, err := core.BootImage(opts, im)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return m
}

// TestWatchdogInfiniteLoop pins the step-budget watchdog on a guest
// infinite loop (`j .`): both engines and any fork of a snapshot must
// return the identical *cpu.StepBudgetError — same PC, same retired
// count — with full machine state agreement.
func TestWatchdogInfiniteLoop(t *testing.T) {
	const src = "main: j main\n"
	const budget = 10_000

	ref := bootASM(t, src, attack.Options{Budget: budget, Reference: true})
	refErr := ref.Run()
	fast := bootASM(t, src, attack.Options{Budget: budget})
	fastErr := fast.Run()

	var refSB, fastSB *cpu.StepBudgetError
	if !errors.As(refErr, &refSB) || !errors.As(fastErr, &fastSB) {
		t.Fatalf("want StepBudgetError from both, got reference %v, fast %v", refErr, fastErr)
	}
	if *refSB != *fastSB {
		t.Fatalf("watchdog trip differs: reference %+v, fast %+v", *refSB, *fastSB)
	}
	if refSB.Steps != budget {
		t.Errorf("Steps = %d, want %d", refSB.Steps, budget)
	}
	compareMachines(t, ref, fast, refErr, fastErr)

	// Forked snapshots must trip identically to a fresh boot and to each
	// other — the watchdog is architectural state, not host state.
	origin := bootASM(t, src, attack.Options{Budget: budget})
	snap, err := origin.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for i := 0; i < 3; i++ {
		f := snap.Fork()
		ferr := f.Run()
		var fsb *cpu.StepBudgetError
		if !errors.As(ferr, &fsb) {
			t.Fatalf("fork %d: want StepBudgetError, got %v", i, ferr)
		}
		if *fsb != *refSB {
			t.Errorf("fork %d trip differs: %+v, want %+v", i, *fsb, *refSB)
		}
	}
}

// stackGrower is a guest that grows its stack one page per iteration
// forever — the canonical runaway-footprint guest the memory limit must
// contain.
const stackGrower = `
main:
	addiu $sp, $sp, -4096
	sw    $zero, 0($sp)
	j     main
`

// TestWatchdogMemLimit pins the memory-growth limit: the stack grower
// must return the identical *mem.LimitError under both engines and under
// forked snapshots. Only the error is compared — the limit surfaces as a
// panic recovered at the run-loop boundary, which loses the fast path's
// batched in-block counters, so post-trip stats are documented as
// best-effort.
func TestWatchdogMemLimit(t *testing.T) {
	const limit = 64 * 4096
	opts := func(reference bool) attack.Options {
		return attack.Options{Budget: 10_000_000, MemLimit: limit, Reference: reference}
	}

	ref := bootASM(t, stackGrower, opts(true))
	refErr := ref.Run()
	fast := bootASM(t, stackGrower, opts(false))
	fastErr := fast.Run()

	var refLE, fastLE *mem.LimitError
	if !errors.As(refErr, &refLE) || !errors.As(fastErr, &fastLE) {
		t.Fatalf("want LimitError from both, got reference %v, fast %v", refErr, fastErr)
	}
	if *refLE != *fastLE {
		t.Fatalf("limit trip differs: reference %+v, fast %+v", *refLE, *fastLE)
	}
	if refLE.Resident != limit {
		t.Errorf("Resident = %d, want %d (the trip fires exactly at the cap)", refLE.Resident, limit)
	}

	origin := bootASM(t, stackGrower, opts(false))
	snap, err := origin.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for i := 0; i < 3; i++ {
		ferr := snap.Fork().Run()
		var fle *mem.LimitError
		if !errors.As(ferr, &fle) {
			t.Fatalf("fork %d: want LimitError, got %v", i, ferr)
		}
		if *fle != *refLE {
			t.Errorf("fork %d trip differs: %+v, want %+v", i, *fle, *refLE)
		}
	}
}

// TestWatchdogOutcomeClassification pins how containment errors fold into
// the attack-outcome taxonomy: both watchdog trips classify as TimedOut,
// neither as Detected or Crashed.
func TestWatchdogOutcomeClassification(t *testing.T) {
	m := bootASM(t, "main: j main\n", attack.Options{Budget: 1000})
	out := attack.Classify(m.Run())
	if !out.TimedOut || out.Detected || out.Crashed {
		t.Errorf("step budget classified %+v, want TimedOut only", out)
	}

	m2 := bootASM(t, stackGrower, attack.Options{Budget: 10_000_000, MemLimit: 16 * 4096})
	out2 := attack.Classify(m2.Run())
	if !out2.TimedOut || out2.Detected || out2.Crashed {
		t.Errorf("mem limit classified %+v, want TimedOut only", out2)
	}
}

// TestGuestFaultRecovery pins the recover boundary: a host-side panic
// raised mid-run (here from a probe callback, the injection mechanism's
// close cousin) must surface as a structured *cpu.GuestFault error, not
// crash the process, on both engines.
func TestGuestFaultRecovery(t *testing.T) {
	for _, reference := range []bool{true, false} {
		m := bootASM(t, "main: addiu $t0, $t0, 1\n\tj main\n",
			attack.Options{Budget: 1_000_000, Reference: reference})
		m.CPU.AddProbe(m.Image.Entry, func(*cpu.CPU) { panic("injected host fault") })
		err := m.Run()
		var gf *cpu.GuestFault
		if !errors.As(err, &gf) {
			t.Fatalf("reference=%v: want GuestFault, got %v", reference, err)
		}
		if gf.Reason != "injected host fault" {
			t.Errorf("reference=%v: Reason = %q", reference, gf.Reason)
		}
		if out := attack.Classify(err); !out.Crashed {
			t.Errorf("reference=%v: GuestFault classified %+v, want Crashed", reference, out)
		}
	}
}

// sbRunaway is a runaway hot loop wide enough to fuse: the superblock
// tier must engage on it, and the step budget must still trip at the
// same deterministic point as the lower tiers.
const sbRunaway = `
main:
	addiu $t0, $t0, 1
	xor   $t1, $t0, $t2
	addiu $t2, $t2, 3
	j     main
`

// bootMatrix boots src three ways — the reference interpreter, the fast
// path with the superblock tier (the default), and the fast path with
// the tier disabled — so containment trips can be cross-checked across
// every execution tier.
func bootMatrix(t *testing.T, src string, opts attack.Options) (ref, sb, nosb *attack.Machine) {
	t.Helper()
	refOpts := opts
	refOpts.Reference = true
	ref = bootASM(t, src, refOpts)
	sb = bootASM(t, src, opts)
	nosb = bootASM(t, src, opts)
	nosb.CPU.SetSuperblocks(false)
	return ref, sb, nosb
}

// TestWatchdogSuperblockMatrix pins the step-budget trip across the full
// tier matrix: reference, fast+superblocks, and fast with the tier off
// must all return the identical *cpu.StepBudgetError — and the
// superblock run must actually have engaged the tier, otherwise the
// matrix silently collapses to two-way.
func TestWatchdogSuperblockMatrix(t *testing.T) {
	const budget = 100_000
	ref, sb, nosb := bootMatrix(t, sbRunaway, attack.Options{Budget: budget})
	refErr, sbErr, nosbErr := ref.Run(), sb.Run(), nosb.Run()

	var want *cpu.StepBudgetError
	if !errors.As(refErr, &want) {
		t.Fatalf("reference: want StepBudgetError, got %v", refErr)
	}
	if want.Steps != budget {
		t.Errorf("Steps = %d, want %d", want.Steps, budget)
	}
	for name, err := range map[string]error{"superblocks": sbErr, "no-superblocks": nosbErr} {
		var got *cpu.StepBudgetError
		if !errors.As(err, &got) {
			t.Fatalf("%s: want StepBudgetError, got %v", name, err)
		}
		if *got != *want {
			t.Errorf("%s trip differs: %+v, want %+v", name, *got, *want)
		}
	}
	compareMachines(t, ref, sb, refErr, sbErr)
	compareMachines(t, ref, nosb, refErr, nosbErr)

	if n := sb.CPU.Stats().SuperblockInstrs; n == 0 {
		t.Errorf("superblock tier never engaged on the runaway loop")
	}
	if n := nosb.CPU.Stats().SuperblockInstrs; n != 0 {
		t.Errorf("disabled tier still retired %d superblock instructions", n)
	}
}

// sbPagedGrower alternates a page-per-iteration stack grab with a hot
// inner countdown: the inner loop heats the superblock tier past its
// dispatch threshold while the outer loop marches toward the resident
// memory cap.
const sbPagedGrower = `
main:
	addiu $sp, $sp, -4096
	sw    $zero, 0($sp)
	addiu $t0, $zero, 400
inner:
	addiu $t0, $t0, -1
	bne   $t0, $zero, inner
	j     main
`

// TestMemLimitSuperblockMatrix pins the resident-memory cap across the
// tier matrix: the identical *mem.LimitError under reference, compiled
// superblocks, and the tier disabled. Only the error is compared —
// the limit surfaces as a recovered panic, which loses in-flight batched
// counters (documented best-effort).
func TestMemLimitSuperblockMatrix(t *testing.T) {
	const limit = 128 * 4096
	opts := attack.Options{Budget: 10_000_000, MemLimit: limit}
	ref, sb, nosb := bootMatrix(t, sbPagedGrower, opts)
	refErr, sbErr, nosbErr := ref.Run(), sb.Run(), nosb.Run()

	var want *mem.LimitError
	if !errors.As(refErr, &want) {
		t.Fatalf("reference: want LimitError, got %v", refErr)
	}
	if want.Resident != limit {
		t.Errorf("Resident = %d, want %d (the trip fires exactly at the cap)", want.Resident, limit)
	}
	for name, err := range map[string]error{"superblocks": sbErr, "no-superblocks": nosbErr} {
		var got *mem.LimitError
		if !errors.As(err, &got) {
			t.Fatalf("%s: want LimitError, got %v", name, err)
		}
		if *got != *want {
			t.Errorf("%s trip differs: %+v, want %+v", name, *got, *want)
		}
	}
	if n := sb.CPU.Stats().SuperblockInstrs; n == 0 {
		t.Errorf("superblock tier never engaged on the paged grower")
	}
	if n := nosb.CPU.Stats().SuperblockInstrs; n != 0 {
		t.Errorf("disabled tier still retired %d superblock instructions", n)
	}
}

// TestInjectAtDifferential pins the injection trigger contract: arming
// the same callback at the same retired count yields byte-identical
// machine state under both engines — the callback fires at the same
// instruction boundary, and a taint bit it flips is visible to both
// datapaths.
func TestInjectAtDifferential(t *testing.T) {
	// A loop that repeatedly loads a word through a register: when the
	// injection taints that word, the pointer-taintedness detector on the
	// load path must fire — at the identical instruction — on both
	// engines.
	const src = `
main:
	la   $t1, cell
loop:
	lw   $t0, 0($t1)
	addiu $t2, $t2, 1
	j    loop

	.data
cell:
	.word 42
`
	run := func(reference bool) (*attack.Machine, error) {
		m := bootASM(t, src, attack.Options{Budget: 100_000, Reference: reference})
		m.CPU.InjectAt(5_000, func(c *cpu.CPU) {
			// Spurious taint on the pointer register: the next lw
			// dereferences a tainted address and the policy must alert,
			// identically on both engines.
			c.SetReg(isa.RegT1, c.Reg(isa.RegT1), taint.Word)
		})
		return m, m.Run()
	}
	ref, refErr := run(true)
	fast, fastErr := run(false)
	compareMachines(t, ref, fast, refErr, fastErr)
	var alert *cpu.SecurityAlert
	if !errors.As(refErr, &alert) {
		t.Fatalf("expected the injected pointer taint to raise an alert, got %v", refErr)
	}
}
