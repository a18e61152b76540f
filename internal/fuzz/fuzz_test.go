package fuzz

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/prov"
	"repro/internal/taint"
)

// smallCfg is the shared quick-session shape: one surface, a few
// generations, defaults otherwise.
func smallCfg(target string, execs int) Config {
	return Config{Seed: 1, Execs: execs, Targets: []string{target}}
}

// marshal renders a report for byte-level comparison.
func marshal(t *testing.T, rep *Report) string {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data)
}

// TestFuzzWorkerInvariance: the same seed + budget yields a byte-identical
// report at any worker count — the candidates are derived from the
// schedule position, not from execution order.
func TestFuzzWorkerInvariance(t *testing.T) {
	cfg := smallCfg("exp1-stack", 200)
	targets, err := PrepareTargets(cfg)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	cfg.Workers = 1
	seq, err := Fuzz(cfg, targets)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	cfg.Workers = 7
	par, err := Fuzz(cfg, targets)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if a, b := marshal(t, seq), marshal(t, par); a != b {
		t.Errorf("reports differ across worker counts:\n--- workers=1\n%s\n--- workers=7\n%s", a, b)
	}
}

// TestFuzzEngineParity: the fast path and the reference interpreter see
// identical instruction streams and record identical edges, so a fixed
// seed + budget yields the same report on both — coverage, corpus,
// findings, instruction totals — differing only in the engine label.
func TestFuzzEngineParity(t *testing.T) {
	cfg := smallCfg("exp1-stack", 200)
	fastRep, err := Run(cfg)
	if err != nil {
		t.Fatalf("fast: %v", err)
	}
	cfg.Reference = true
	refRep, err := Run(cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if fastRep.Engine != "fast" || refRep.Engine != "reference" {
		t.Fatalf("engine labels: %q, %q", fastRep.Engine, refRep.Engine)
	}
	refRep.Engine = fastRep.Engine
	if a, b := marshal(t, fastRep), marshal(t, refRep); a != b {
		t.Errorf("reports differ across engines:\n--- fast\n%s\n--- reference\n%s", a, b)
	}
}

// TestFuzzRediscoversScriptedAttack: starting from benign seeds only, the
// mutator must re-find the scripted exp1 stack smash's alert fingerprint
// — alert kind, PC, symbol, input channel — without being shown it.
func TestFuzzRediscoversScriptedAttack(t *testing.T) {
	rep, err := Run(smallCfg("exp1-stack", 256))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tr := rep.Targets["exp1-stack"]
	if tr == nil {
		t.Fatal("exp1-stack missing from report")
	}
	if !tr.Rediscovered {
		t.Fatalf("scripted fingerprint %q not rediscovered in %d execs; findings: %+v",
			tr.ScriptedFingerprint, tr.Execs, tr.Findings)
	}
	if tr.RediscoveredExec < len(InputTargetSeeds(t)) {
		t.Errorf("rediscovery at exec %d is a seed slot — seeds must be benign", tr.RediscoveredExec)
	}
}

// InputTargetSeeds returns exp1's seed corpus (helper so the test above
// can assert no seed itself alerts).
func InputTargetSeeds(t *testing.T) [][]byte {
	it, ok := attack.InputTargetByName("exp1-stack")
	if !ok {
		t.Fatal("exp1-stack input target missing")
	}
	return it.Seeds
}

// TestSeedsAreBenign: every input target's seed corpus must run clean —
// rediscovery from an already-alerting seed would prove nothing.
func TestSeedsAreBenign(t *testing.T) {
	cfg := Config{Seed: 1}
	targets, err := PrepareTargets(cfg)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for _, tgt := range targets {
		for i, seed := range tgt.Seeds {
			r := runOne(tgt, seed)
			if label := classLabel(r); label != fault.Benign.String() {
				t.Errorf("%s seed %d (%q): %s, want Benign",
					tgt.Scenario.Name, i, seed, label)
			}
		}
	}
}

// panicInputTarget builds a test double over the exp1 victim whose Play
// panics the host worker on any odd-length input — the fuzz-load failure
// mode the pool guard must absorb.
func panicInputTarget(t *testing.T) *Target {
	t.Helper()
	sc, ok := attack.ScenarioByName("exp1-stack")
	if !ok {
		t.Fatal("exp1-stack scenario missing")
	}
	it := attack.InputTarget{
		Scenario: attack.Scenario{
			Name:        "panic-victim",
			Description: "test double: host worker panics on odd-length inputs",
			Boot:        sc.Boot,
			Session: func(m *attack.Machine) (attack.Outcome, error) {
				return attack.Outcome{}, nil
			},
		},
		Seeds:  [][]byte{[]byte("hi\n\n")}, // even length: the calibration run must survive
		MaxLen: 32,
		Play: func(m *attack.Machine, input []byte) (attack.Outcome, error) {
			if len(input)%2 == 1 {
				panic("injected fuzz-load panic")
			}
			m.Kernel.SetStdin(input)
			return attack.Classify(m.Run()), nil
		},
	}
	m, err := it.Scenario.Prepare(taint.PolicyPointerTaintedness)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	tgt, err := NewTarget(it, m)
	if err != nil {
		t.Fatalf("new target: %v", err)
	}
	return tgt
}

// TestFuzzConsistentUnderWorkerPanics: a Play that panics mid-session is
// recovered by the campaign pool guard, and the corpus and coverage
// accounting stay consistent — every exec lands in exactly one outcome
// class, no input is lost or double-counted, the feature ledger matches
// the corpus admissions — and the whole report is still byte-identical
// across worker counts.
func TestFuzzConsistentUnderWorkerPanics(t *testing.T) {
	cfg := Config{Seed: 7, Execs: 150, Batch: 32, Workers: 1}
	run := func(workers int) *Report {
		cfg.Workers = workers
		rep, err := Fuzz(cfg, []*Target{panicInputTarget(t)})
		if err != nil {
			t.Fatalf("fuzz (workers=%d): %v", workers, err)
		}
		return rep
	}
	rep := run(1)
	tr := rep.Targets["panic-victim"]

	total := 0
	for _, n := range tr.Outcomes {
		total += n
	}
	if total != tr.Execs || tr.Execs != cfg.Execs {
		t.Errorf("outcome classes do not partition the execs: %d recorded, %d budgeted (%v)",
			total, cfg.Execs, tr.Outcomes)
	}
	if tr.Outcomes[fault.Timeout.String()] == 0 {
		t.Error("no exec classified Timeout — the panic injection never fired")
	}
	if tr.Outcomes[fault.Benign.String()] == 0 {
		t.Error("no exec survived — even-length inputs should run normally")
	}
	sum := 0
	for _, e := range tr.Corpus {
		sum += e.NewFeatures
	}
	if sum != tr.Features {
		t.Errorf("feature ledger inconsistent: corpus admissions claim %d new features, total is %d",
			sum, tr.Features)
	}
	if tr.CorpusSize != len(tr.Corpus) {
		t.Errorf("corpus size %d != %d entries", tr.CorpusSize, len(tr.Corpus))
	}

	if a, b := marshal(t, rep), marshal(t, run(6)); a != b {
		t.Errorf("panicking session not worker-invariant:\n--- workers=1\n%s\n--- workers=6\n%s", a, b)
	}
}

// TestFuzzConsistentUnderDeadline: a Play that wedges past the per-exec
// deadline is abandoned into its own Timeout slot; the rest of the batch
// completes and the accounting invariants hold.
func TestFuzzConsistentUnderDeadline(t *testing.T) {
	sc, _ := attack.ScenarioByName("exp1-stack")
	it := attack.InputTarget{
		Scenario: attack.Scenario{
			Name:        "wedge-victim",
			Description: "test double: host worker wedges on odd-length inputs",
			Boot:        sc.Boot,
			Session: func(m *attack.Machine) (attack.Outcome, error) {
				return attack.Outcome{}, nil
			},
		},
		Seeds:  [][]byte{[]byte("hi\n\n")},
		MaxLen: 32,
		Play: func(m *attack.Machine, input []byte) (attack.Outcome, error) {
			if len(input)%2 == 1 {
				time.Sleep(300 * time.Millisecond)
			}
			m.Kernel.SetStdin(input)
			return attack.Classify(m.Run()), nil
		},
	}
	m, err := it.Scenario.Prepare(taint.PolicyPointerTaintedness)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	tgt, err := NewTarget(it, m)
	if err != nil {
		t.Fatalf("new target: %v", err)
	}
	// Trimming is disabled: trim re-runs have no deadline backstop, and a
	// wedging truncated candidate would stall minimization, not the pool.
	cfg := Config{Seed: 7, Execs: 64, Batch: 32, Workers: 4,
		Containment: core.Containment{Deadline: 50 * time.Millisecond}, TrimLimit: -1}
	rep, err := Fuzz(cfg, []*Target{tgt})
	if err != nil {
		t.Fatalf("fuzz: %v", err)
	}
	tr := rep.Targets["wedge-victim"]
	total := 0
	for _, n := range tr.Outcomes {
		total += n
	}
	if total != cfg.Execs {
		t.Errorf("outcome classes do not partition the execs: %d != %d (%v)", total, cfg.Execs, tr.Outcomes)
	}
	if tr.Outcomes[fault.Timeout.String()] == 0 {
		t.Error("no exec classified Timeout — the deadline never reaped a wedged slot")
	}
	if tr.Outcomes[fault.Benign.String()] == 0 {
		t.Error("no exec survived — even-length inputs should run normally")
	}
}

// TestMutateDeterministic: a (seed, generation, slot) triple names exactly
// one candidate.
func TestMutateDeterministic(t *testing.T) {
	parents := [][]byte{[]byte("hello world"), []byte("SITE EXEC x")}
	dict := [][]byte{[]byte("%n"), []byte("%x")}
	for gen := 0; gen < 3; gen++ {
		for slot := 0; slot < 8; slot++ {
			a := mutate(rand.New(rand.NewSource(slotSeed(42, gen, slot))), parents, dict, 64)
			b := mutate(rand.New(rand.NewSource(slotSeed(42, gen, slot))), parents, dict, 64)
			if string(a) != string(b) {
				t.Fatalf("gen %d slot %d: %q != %q", gen, slot, a, b)
			}
			if len(a) == 0 || len(a) > 64 {
				t.Fatalf("gen %d slot %d: bad length %d", gen, slot, len(a))
			}
		}
	}
}

// TestBatchLimit: slot seeds pack the slot into 20 bits, so Fuzz rejects
// a generation above MaxBatch rather than reuse a seed across
// generations. At the limit itself, the last slot of one generation and
// slot 0 of the next still get different seeds.
func TestBatchLimit(t *testing.T) {
	_, err := Fuzz(Config{Seed: 1, Execs: 8, Batch: MaxBatch + 1}, nil)
	if err == nil {
		t.Fatal("Fuzz accepted a batch above MaxBatch")
	}
	if _, err := Fuzz(Config{Seed: 1, Execs: 8, Batch: MaxBatch}, nil); err != nil {
		t.Fatalf("Fuzz rejected a batch of MaxBatch: %v", err)
	}
	seen := map[int64]string{}
	for gen := 0; gen < 3; gen++ {
		for _, slot := range []int{0, 1, MaxBatch - 1} {
			s := slotSeed(1, gen, slot)
			at := fmt.Sprintf("gen %d slot %d", gen, slot)
			if prev, dup := seen[s]; dup {
				t.Fatalf("%s reuses the seed of %s", at, prev)
			}
			seen[s] = at
		}
	}
}

// TestFingerprint pins the fingerprint shapes: alert identity includes
// kind, PC, symbol, and origin channels but never the attacker-chosen
// value; crash reasons have their hex literals normalized away.
func TestFingerprint(t *testing.T) {
	alert := &cpu.SecurityAlert{
		Kind:   taint.AlertJumpTarget,
		PC:     0x403d74,
		Value:  0x62626262, // must NOT appear in the fingerprint
		Symbol: "exp1",
		SymOff: 0x38,
		Provenance: &cpu.Provenance{
			Origins: []prov.Origin{
				{Syscall: "read", FD: 0, Offset: 0, Len: 24},
				{Syscall: "read", FD: 0, Offset: 24, Len: 8}, // same channel, different bytes
			},
		},
	}
	got := Fingerprint(attack.Outcome{Detected: true, Alert: alert})
	want := "alert:tainted-jump-target@0x00403d74 in exp1+0x38 via read(fd 0)"
	if got != want {
		t.Errorf("alert fingerprint %q, want %q", got, want)
	}

	crash := attack.Outcome{Crashed: true, Fault: &cpu.Fault{PC: 0x402a2c, Reason: "unaligned 4-byte access at 0x2d303032"}}
	got = Fingerprint(crash)
	want = "crash@0x00402a2c: unaligned 4-byte access at 0x…"
	if got != want {
		t.Errorf("crash fingerprint %q, want %q", got, want)
	}

	if fp := Fingerprint(attack.Outcome{TimedOut: true}); fp != "timeout" {
		t.Errorf("timeout fingerprint %q", fp)
	}
	if fp := Fingerprint(attack.Outcome{}); fp != "clean" {
		t.Errorf("clean fingerprint %q", fp)
	}
}

// TestContainsAll pins the sorted-subset helper the trimmer relies on.
func TestContainsAll(t *testing.T) {
	feats := []uint32{1, 4, 9, 16, 25}
	if !containsAll(feats, []uint32{4, 25}) {
		t.Error("subset rejected")
	}
	if containsAll(feats, []uint32{4, 26}) {
		t.Error("non-subset accepted")
	}
	if !containsAll(feats, nil) {
		t.Error("empty need rejected")
	}
}
