package fuzz

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/taint"
)

// TestPrepareConcurrentWithSessions: fault and fuzz targets prepared on
// the reference engine with provenance on, while fast-engine campaign
// sessions boot and replay on another goroutine, leak no boot choice in
// either direction. Every concurrent session fingerprints exactly like
// the sequential baseline, and the prepared targets ran on the reference
// engine with provenance. Under -race this also proves that no boot
// setting lives in shared process state.
func TestPrepareConcurrentWithSessions(t *testing.T) {
	sc, ok := attack.ScenarioByName("exp1-stack")
	if !ok {
		t.Fatal("exp1-stack scenario missing")
	}
	sessions := func() (string, error) {
		m, err := sc.Boot(attack.Options{Policy: taint.PolicyPointerTaintedness})
		if err != nil {
			return "", err
		}
		snap, err := m.Snapshot()
		if err != nil {
			return "", err
		}
		rs, _ := campaign.RunGuarded(snap, 4, 2, campaign.GuardOpts{}, func(_ int, m *attack.Machine) (attack.Outcome, error) {
			return sc.Session(m)
		})
		return strings.Join(campaign.Fingerprints(rs), "\n"), nil
	}
	want, err := sessions()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan error, 1)
	rounds := 0
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			got, err := sessions()
			if err != nil {
				done <- err
				return
			}
			if got != want {
				done <- fmt.Errorf("concurrent sessions diverged from the sequential baseline:\n%s\nvs\n%s", got, want)
				return
			}
			rounds++
		}
	}()
	faultTargets, faultErr := fault.PrepareTargets(fault.Config{Reference: true, Provenance: true}, nil)
	fuzzTargets, fuzzErr := PrepareTargets(Config{Reference: true})
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if faultErr != nil {
		t.Fatalf("prepare fault targets: %v", faultErr)
	}
	if fuzzErr != nil {
		t.Fatalf("prepare fuzz targets: %v", fuzzErr)
	}
	t.Logf("%d session rounds ran during preparation", rounds)

	// The reference interpreter never touches the block cache, before or
	// after the prelude the entry snapshot ran.
	for _, tgt := range fuzzTargets {
		for _, snap := range []*attack.Snapshot{tgt.snap, tgt.entry} {
			if s := snap.Stats(); s.BlockHits+s.BlockMisses != 0 {
				t.Errorf("fuzz target %s booted on the fast engine: %+v", tgt.Scenario.Name, s)
			}
			if !snap.Fork().CPU.ProvEnabled() {
				t.Errorf("fuzz target %s booted without provenance", tgt.Scenario.Name)
			}
		}
	}
	rep, err := fault.Campaign(fault.Config{Runs: len(faultTargets), Workers: 2, InjectorNames: []string{"none"}},
		faultTargets, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Metrics.Counters["cpu.block_hits"] + rep.Metrics.Counters["cpu.block_misses"]; n != 0 {
		t.Errorf("fault targets ran %d block dispatches; want the reference engine", n)
	}
	for _, tgt := range faultTargets {
		if tgt.Arm == fault.ArmAttack && (tgt.Control.Alert == nil || tgt.Control.Alert.Provenance == nil) {
			t.Errorf("fault target %s: control alert has no provenance chain: %v", tgt.Name, tgt.Control)
		}
	}
}
