// Differential harness for the predecoded basic-block fast path: every
// corpus program and every attack scenario runs under both interpreters —
// the reference one-instruction Step loop and the RunFast block stepper —
// and the final machine states must be indistinguishable: identical run
// errors (alerts byte-for-byte, at the same pc and retired-instruction
// count), identical register file and taint vectors, identical memory
// fingerprints, identical architectural counters and pipeline timing.
//
// This file lives in package cpu_test (not cpu) because it drives the
// machine through internal/attack, which itself imports internal/cpu.
package cpu_test

import (
	"errors"
	"testing"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/progs"
	"repro/internal/taint"
)

// diffBudget bounds one differential run. Programs that exceed it stop on
// the budget fault in both modes — still a valid equivalence check, since
// the fault must fire at the same pc after the same retired count.
const diffBudget = 30_000_000

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// bootCorpus boots p with deterministic generic inputs: a tainted stdin, a
// seeded /input file (what the SPEC analogues read), and no network. The
// servers in the corpus block waiting for a connection; a *BlockedError is
// then the expected terminal state on both paths.
func bootCorpus(t *testing.T, p progs.Program, policy taint.Policy, reference bool) *attack.Machine {
	t.Helper()
	m, err := attack.Boot(p, attack.Options{
		Policy:    policy,
		Stdin:     []byte("differential input 0123456789 %n %x\n"),
		Files:     map[string][]byte{"/input": progs.SpecInput(p.Name, 1)},
		Budget:    diffBudget,
		Reference: reference,
	})
	if err != nil {
		t.Fatalf("boot %s: %v", p.Name, err)
	}
	return m
}

// compareAlerts requires that two run errors carry the same security alert
// (or that neither does).
func compareAlerts(t *testing.T, refErr, fastErr error) {
	t.Helper()
	var refAlert, fastAlert *cpu.SecurityAlert
	refIs := errors.As(refErr, &refAlert)
	fastIs := errors.As(fastErr, &fastAlert)
	if refIs != fastIs {
		t.Fatalf("alert presence differs: reference %v, fast %v", refErr, fastErr)
	}
	if !refIs {
		return
	}
	if *refAlert != *fastAlert {
		t.Errorf("alert differs:\nreference %+v\nfast      %+v", *refAlert, *fastAlert)
	}
}

// compareMachines asserts that a reference run and a fast run of the same
// program ended in the same machine state.
func compareMachines(t *testing.T, ref, fast *attack.Machine, refErr, fastErr error) {
	t.Helper()
	if got, want := errString(fastErr), errString(refErr); got != want {
		t.Fatalf("run error: fast %q, reference %q", got, want)
	}
	compareAlerts(t, refErr, fastErr)

	rh, rc := ref.CPU.Halted()
	fh, fc := fast.CPU.Halted()
	if rh != fh || rc != fc {
		t.Errorf("halt state: fast (%v, %d), reference (%v, %d)", fh, fc, rh, rc)
	}
	if ref.CPU.PC() != fast.CPU.PC() {
		t.Errorf("pc: fast %#08x, reference %#08x", fast.CPU.PC(), ref.CPU.PC())
	}
	for r := 0; r < isa.NumRegisters; r++ {
		reg := isa.Register(r)
		if ref.CPU.Reg(reg) != fast.CPU.Reg(reg) {
			t.Errorf("%v: fast %#x, reference %#x", reg, fast.CPU.Reg(reg), ref.CPU.Reg(reg))
		}
		if ref.CPU.RegTaint(reg) != fast.CPU.RegTaint(reg) {
			t.Errorf("%v taint: fast %v, reference %v", reg, fast.CPU.RegTaint(reg), ref.CPU.RegTaint(reg))
		}
	}

	// Architectural counters must agree exactly. The fast-path-only
	// counters (BlockHits, BlockMisses, CleanSkips) legitimately differ
	// between modes and are checked via the retirement invariant instead.
	rs, fs := ref.CPU.Stats(), fast.CPU.Stats()
	counters := []struct {
		name      string
		ref, fast uint64
	}{
		{"Instructions", rs.Instructions, fs.Instructions},
		{"Loads", rs.Loads, fs.Loads},
		{"Stores", rs.Stores, fs.Stores},
		{"Branches", rs.Branches, fs.Branches},
		{"Syscalls", rs.Syscalls, fs.Syscalls},
		{"Alerts", rs.Alerts, fs.Alerts},
	}
	for _, c := range counters {
		if c.ref != c.fast {
			t.Errorf("stats.%s: fast %d, reference %d", c.name, c.fast, c.ref)
		}
	}
	if rs.CleanSkips != 0 {
		t.Errorf("reference run took %d clean skips; the reference path must run the full datapath", rs.CleanSkips)
	}
	if rs.CleanSkips+rs.TaintedSteps != rs.Instructions {
		t.Errorf("reference: CleanSkips(%d) + TaintedSteps(%d) != Instructions(%d)",
			rs.CleanSkips, rs.TaintedSteps, rs.Instructions)
	}
	if fs.CleanSkips+fs.TaintedSteps != fs.Instructions {
		t.Errorf("fast: CleanSkips(%d) + TaintedSteps(%d) != Instructions(%d)",
			fs.CleanSkips, fs.TaintedSteps, fs.Instructions)
	}
	checkDeoptBreakdown(t, "fast", fs)
	checkDeoptBreakdown(t, "reference", rs)

	// The pipeline timing model is part of the contract (alerts carry the
	// retirement cycle). Only valid on flat memory: the block builder's
	// instruction prefetch changes fetch patterns under the cache model.
	if ref.CPU.Pipe() != fast.CPU.Pipe() {
		t.Errorf("pipeline: fast %+v, reference %+v", fast.CPU.Pipe(), ref.CPU.Pipe())
	}

	if rf, ff := ref.Mem.Fingerprint(), fast.Mem.Fingerprint(); rf != ff {
		t.Errorf("memory fingerprint: fast %#x, reference %#x", ff, rf)
	}
}

// checkDeoptBreakdown asserts that the per-reason superblock deopt
// counters partition the total — every deopt site must tag exactly one
// reason, or the fleet exposition would silently misattribute exits.
func checkDeoptBreakdown(t *testing.T, engine string, s cpu.Stats) {
	t.Helper()
	var sum uint64
	for _, d := range s.DeoptReasons() {
		sum += d.Count
	}
	if sum != s.SuperblockDeopts {
		t.Errorf("%s: deopt reasons sum to %d, total SuperblockDeopts %d (breakdown %+v)",
			engine, sum, s.SuperblockDeopts, s.DeoptReasons())
	}
}

// checkHomeAudits requires both engines' compare-untaint write-throughs
// to have found every home still mirroring its register.
func checkHomeAudits(t *testing.T, ref, fast func() (uint64, error)) {
	t.Helper()
	_, rerr := ref()
	_, ferr := fast()
	if rerr != nil || ferr != nil {
		t.Errorf("stale register home: reference %v, fast %v", rerr, ferr)
	}
}

// TestDifferentialCorpus runs every corpus program — synthetic attacks,
// false-negative scenarios, application analogues, SPEC analogues — under
// both interpreters and cross-checks the final states, with the
// home-mirror invariant armed on both.
func TestDifferentialCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus sweep is slow")
	}
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ref := bootCorpus(t, p, taint.PolicyPointerTaintedness, true)
			refAudit := cpu.AuditHomes(ref.CPU)
			refErr := ref.Run()
			fast := bootCorpus(t, p, taint.PolicyPointerTaintedness, false)
			fastAudit := cpu.AuditHomes(fast.CPU)
			fastErr := fast.Run()
			compareMachines(t, ref, fast, refErr, fastErr)
			checkHomeAudits(t, refAudit, fastAudit)
			if r, f := ref.CPU.HomeUntaints(), fast.CPU.HomeUntaints(); r != f {
				t.Errorf("tainted home bytes untainted: fast %d, reference %d", f, r)
			}
		})
	}
}

// diffScenarios enumerates every attack driver in internal/attack; each is
// a full interactive session (network transcripts, probe-calibrated
// payloads), so together they push tainted data through every detector.
var diffScenarios = []struct {
	name string
	run  func(attack.Options) (attack.Outcome, error)
}{
	{"exp1-stack", attack.Exp1StackSmash},
	{"exp2-heap", attack.Exp2HeapCorruption},
	{"exp3-format", attack.Exp3FormatString},
	{"fn-intoverflow", attack.FNIntegerOverflowAttack},
	{"fn-authflag", attack.FNAuthFlagAttack},
	{"fn-infoleak", attack.FNInfoLeakAttack},
	{"fn-authflag-annotated", attack.AnnotatedAuthFlagAttack},
	{"env-overflow", attack.EnvOverflowAttack},
	{"wuftpd-noncontrol", attack.WuFTPDNonControl},
	{"wuftpd-control", attack.WuFTPDControl},
	{"nullhttpd-noncontrol", attack.NullHTTPDNonControl},
	{"nullhttpd-control", attack.NullHTTPDControl},
	{"ghttpd-noncontrol", attack.GHTTPDNonControl},
	{"ghttpd-control", attack.GHTTPDControl},
	{"traceroute-doublefree", attack.TracerouteDoubleFree},
}

// compareOutcomes requires two attack outcomes to agree, including the
// alert details when one fired.
func compareOutcomes(t *testing.T, ref, fast attack.Outcome, refErr, fastErr error) {
	t.Helper()
	if got, want := errString(fastErr), errString(refErr); got != want {
		t.Fatalf("scenario error: fast %q, reference %q", got, want)
	}
	if ref.Detected != fast.Detected || ref.Crashed != fast.Crashed ||
		ref.Compromised != fast.Compromised || ref.Evidence != fast.Evidence {
		t.Fatalf("outcome differs:\nreference %v\nfast      %v", ref, fast)
	}
	if (ref.Alert == nil) != (fast.Alert == nil) {
		t.Fatalf("alert presence differs: reference %v, fast %v", ref.Alert, fast.Alert)
	}
	if ref.Alert != nil && *ref.Alert != *fast.Alert {
		t.Errorf("alert differs:\nreference %+v\nfast      %+v", *ref.Alert, *fast.Alert)
	}
	if (ref.Fault == nil) != (fast.Fault == nil) {
		t.Fatalf("fault presence differs: reference %v, fast %v", ref.Fault, fast.Fault)
	}
	if ref.Fault != nil && *ref.Fault != *fast.Fault {
		t.Errorf("fault differs:\nreference %+v\nfast      %+v", *ref.Fault, *fast.Fault)
	}
}

// TestDifferentialScenarios replays every attack scenario under both
// detection policies in both execution modes.
func TestDifferentialScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("differential scenario sweep is slow")
	}
	policies := []struct {
		name   string
		policy taint.Policy
	}{
		{"pointer", taint.PolicyPointerTaintedness},
		{"control", taint.PolicyControlDataOnly},
	}
	for _, sc := range diffScenarios {
		sc := sc
		for _, pol := range policies {
			pol := pol
			t.Run(sc.name+"/"+pol.name, func(t *testing.T) {
				refOut, refErr := sc.run(attack.Options{Policy: pol.policy, Reference: true})
				fastOut, fastErr := sc.run(attack.Options{Policy: pol.policy})
				compareOutcomes(t, refOut, fastOut, refErr, fastErr)
			})
		}
	}
}

// TestDifferentialTable2Transcript cross-checks the full WU-FTPD attack
// session transcript (Table 2), the longest interactive scenario.
func TestDifferentialTable2Transcript(t *testing.T) {
	if testing.Short() {
		t.Skip("transcript replay is slow")
	}
	refLog, refOut, refErr := attack.WuFTPDTable2(attack.Options{Reference: true})
	fastLog, fastOut, fastErr := attack.WuFTPDTable2(attack.Options{})
	compareOutcomes(t, refOut, fastOut, refErr, fastErr)
	if len(refLog) != len(fastLog) {
		t.Fatalf("transcript length: fast %d, reference %d", len(fastLog), len(refLog))
	}
	for i := range refLog {
		if refLog[i] != fastLog[i] {
			t.Errorf("transcript entry %d differs:\nreference %+v\nfast      %+v", i, refLog[i], fastLog[i])
		}
	}
}
