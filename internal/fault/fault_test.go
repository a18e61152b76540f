package fault

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/metrics"
)

// prepare builds the full target set once per engine.
func prepare(t *testing.T, reference bool) []*Target {
	t.Helper()
	targets, err := PrepareTargets(Config{Reference: reference}, nil)
	if err != nil {
		t.Fatalf("prepare targets: %v", err)
	}
	return targets
}

func marshal(t *testing.T, rep *Report) string {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(data)
}

// TestCampaignWorkerCountDeterminism: same seed ⇒ byte-identical JSON
// report (including every per-run record) no matter how many workers ran
// the campaign.
func TestCampaignWorkerCountDeterminism(t *testing.T) {
	targets := prepare(t, false)
	cfg := Config{Seed: 42, Runs: 72, Containment: core.Containment{Deadline: time.Minute}}

	cfg.Workers = 1
	seq, err := Campaign(cfg, targets, true)
	if err != nil {
		t.Fatalf("sequential campaign: %v", err)
	}
	cfg.Workers = 4
	par, err := Campaign(cfg, targets, true)
	if err != nil {
		t.Fatalf("parallel campaign: %v", err)
	}
	if a, b := marshal(t, seq), marshal(t, par); a != b {
		t.Errorf("reports differ between 1 and 4 workers:\n--- workers=1\n%s\n--- workers=4\n%s", a, b)
	}
}

// TestCampaignSeedSensitivity: a different seed must actually change the
// drawn triggers (guards against a campaign that ignores its seed).
func TestCampaignSeedSensitivity(t *testing.T) {
	targets := prepare(t, false)
	a, err := Campaign(Config{Seed: 1, Runs: 36, Workers: 2}, targets, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(Config{Seed: 2, Runs: 36, Workers: 2}, targets, true)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Results {
		if a.Results[i].Trigger != b.Results[i].Trigger {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 drew identical trigger sequences")
	}
}

// TestCampaignEngineDeterminism: the fast path and the reference
// interpreter classify every injected run identically — taint-bit flips
// and state corruption are visible to both datapaths, and triggers land
// at the same retired-instruction boundary. Reports are compared byte
// for byte after normalizing the engine label.
func TestCampaignEngineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double-engine campaign is slow")
	}
	cfg := Config{Seed: 7, Runs: 72, Workers: 2}

	fastT := prepare(t, false)
	cfg.Reference = false
	fastRep, err := Campaign(cfg, fastT, true)
	if err != nil {
		t.Fatalf("fast campaign: %v", err)
	}
	refT := prepare(t, true)
	cfg.Reference = true
	refRep, err := Campaign(cfg, refT, true)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}

	fastRep.Engine, refRep.Engine = "normalized", "normalized"
	// The aggregated metrics are engine-specific by design (block hits,
	// clean skips, pipeline counters exist only on the fast path); the
	// determinism contract covers classification, not perf counters.
	fastRep.Metrics, refRep.Metrics = metrics.Snapshot{}, metrics.Snapshot{}
	if a, b := marshal(t, fastRep), marshal(t, refRep); a != b {
		t.Errorf("reports differ between engines:\n--- fast\n%s\n--- reference\n%s", a, b)
	}
}

// TestCampaignInvariants: the control arm must stay clean and the
// injected attack arm must keep detecting — the Check() contract the
// Makefile's fault-campaign target enforces.
func TestCampaignInvariants(t *testing.T) {
	targets := prepare(t, false)
	rep, err := Campaign(Config{Seed: 3, Runs: 108, Workers: 4}, targets, false)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if err := rep.Check(); err != nil {
		t.Errorf("invariants violated: %v", err)
	}
	if rep.Outcomes[DetectedAlert.String()] == 0 {
		t.Error("no detections at all")
	}
	total := 0
	for _, n := range rep.Outcomes {
		total += n
	}
	if total != rep.Runs {
		t.Errorf("outcome counts sum to %d, want %d", total, rep.Runs)
	}
}

// TestClassifyOutcome pins the taxonomy's precedence.
func TestClassifyOutcome(t *testing.T) {
	cases := []struct {
		name string
		arm  Arm
		out  attack.Outcome
		want Class
	}{
		{"attack detect", ArmAttack, attack.Outcome{Detected: true}, DetectedAlert},
		{"benign detect is spurious", ArmBenign, attack.Outcome{Detected: true}, SpuriousAlert},
		{"silent compromise", ArmAttack, attack.Outcome{Compromised: true}, SilentTaintLoss},
		{"crash+compromise w/o alert is silent", ArmAttack, attack.Outcome{Crashed: true, Compromised: true}, SilentTaintLoss},
		{"detected compromise is detected", ArmAttack, attack.Outcome{Detected: true, Compromised: true}, DetectedAlert},
		{"benign compromise impossible -> crash only", ArmBenign, attack.Outcome{Crashed: true}, GuestCrash},
		{"containment wins", ArmAttack, attack.Outcome{TimedOut: true, Compromised: true}, Timeout},
		{"nothing", ArmBenign, attack.Outcome{}, Benign},
	}
	for _, c := range cases {
		if got := classifyOutcome(c.arm, c.out, nil); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	wrapped := fmt.Errorf("session failed: %w", &cpu.StepBudgetError{PC: 0x1000, Steps: 42})
	if got := classifyOutcome(ArmAttack, attack.Outcome{}, wrapped); got != Timeout {
		t.Errorf("wrapped containment error: got %v, want Timeout", got)
	}
	if got := classifyOutcome(ArmAttack, attack.Outcome{}, errPlain{}); got != GuestCrash {
		t.Errorf("unrecognized session error: got %v, want GuestCrash", got)
	}
}

type errPlain struct{}

func (errPlain) Error() string { return "session broke" }

// TestPrepareTargetsSelection: with no filter, PrepareTargets boots only
// the targets cfg.Targets names (all of them when it is empty), in the
// usual attack-then-benign order; an explicit filter takes precedence.
func TestPrepareTargetsSelection(t *testing.T) {
	names := func(ts []*Target) string {
		var out []string
		for _, tg := range ts {
			out = append(out, tg.Name)
		}
		return strings.Join(out, ",")
	}
	cases := []struct {
		cfg    Config
		filter func(string) bool
		want   string
	}{
		{Config{Targets: []string{"gzips", "exp1-stack"}}, nil, "exp1-stack,gzips"},
		{Config{Targets: []string{"gzips"}}, func(n string) bool { return n == "exp2-heap" }, "exp2-heap"},
	}
	for _, c := range cases {
		ts, err := PrepareTargets(c.cfg, c.filter)
		if err != nil {
			t.Fatalf("prepare %v: %v", c.cfg.Targets, err)
		}
		if got := names(ts); got != c.want {
			t.Errorf("targets %v: prepared %s, want %s", c.cfg.Targets, got, c.want)
		}
	}
	if got := names(prepare(t, false)); got != "exp1-stack,exp2-heap,wuftpd-site-exec,exp1-benign,gzips,parsers" {
		t.Errorf("empty Targets prepared %s, want all six", got)
	}
	if _, err := PrepareTargets(Config{Targets: []string{"bogus"}}, nil); err == nil {
		t.Error("a filter matching nothing should fail")
	}
}
