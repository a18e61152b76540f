package fault

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// allocRuns is the campaign size of BenchmarkFaultCampaign and
// TestFaultRunAllocBudget: every target × injector cell several times.
const allocRuns = 120

// BenchmarkFaultCampaign is one seeded 120-run campaign over every target
// and injector on one worker, per-run records kept: fork, arm the
// injection, run the session, classify, capture metrics.
func BenchmarkFaultCampaign(b *testing.B) {
	targets, err := PrepareTargets(Config{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Campaign(Config{Seed: int64(i + 1), Runs: allocRuns, Workers: 1}, targets, true); err != nil {
			b.Fatal(err)
		}
	}
}

// faultRunAllocBudget bounds the heap one injected run allocates, averaged
// over a warm campaign. An armed fork stays on its family's shared block
// table and reuses the superblocks any sibling compiled there, so a
// run pays for its own pages, kernel copy, session and report record, and
// nothing proportional to the text segment or its hot traces.
const faultRunAllocBudget = 96 << 10

// TestFaultRunAllocBudget holds BenchmarkFaultCampaign's bytes per run,
// measured on targets one campaign has already warmed, to
// faultRunAllocBudget.
func TestFaultRunAllocBudget(t *testing.T) {
	targets := prepare(t, false)
	cfg := Config{Seed: 1, Runs: allocRuns, Workers: 1}
	if _, err := Campaign(cfg, targets, true); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Campaign(cfg, targets, true); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / allocRuns; per > faultRunAllocBudget {
		t.Errorf("an injected run allocates %d KB, budget %d KB", per>>10, faultRunAllocBudget>>10)
	} else {
		t.Logf("an injected run allocates %d KB", per>>10)
	}
}

// TestCampaignHistoryIndependence runs one 600-run all-target campaign
// three times on the same prepared targets: cold on two workers, then
// warm on one and on two. The targets' snapshot families keep every block
// and superblock the earlier runs compiled, so the warm campaigns reuse
// them; their reports, per-run metrics included, must still be the cold
// campaign's byte for byte.
func TestCampaignHistoryIndependence(t *testing.T) {
	targets := prepare(t, false)
	cfg := Config{Seed: 5, Runs: 600}
	var cold []byte
	for i, workers := range []int{2, 1, 2} {
		cfg.Workers = workers
		rep, err := Campaign(cfg, targets, true)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cold = data
		} else if !bytes.Equal(data, cold) {
			t.Errorf("campaign %d (warm, %d workers) reports differently from the cold one", i+1, workers)
		}
	}
}

// TestCampaignMetricsFold: the report's metrics are the hand-summed
// metrics of every run, each run re-executed on its own, and the kept
// per-run records still hold their own run's snapshot, so an accumulator
// that adopts a run's maps fails here.
func TestCampaignMetricsFold(t *testing.T) {
	targets := prepare(t, false)
	injectors := Injectors()
	cfg := Config{Seed: 3, Runs: 2 * len(targets) * len(injectors), Workers: 2}
	rep, err := Campaign(cfg, targets, true)
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]float64{},
	}
	for i, r := range rep.Results {
		seed := int64(obs.SplitMix64(uint64(cfg.Seed), uint64(i)))
		alone := runOne(targets[i%len(targets)], injectors[(i/len(targets))%len(injectors)], i, seed)
		if !reflect.DeepEqual(r.Metrics, alone.Metrics) {
			t.Errorf("run %d's kept metrics differ from the run re-executed alone", i)
		}
		for k, v := range alone.Metrics.Counters {
			want.Counters[k] += v
		}
		for k, v := range alone.Metrics.Gauges {
			want.Gauges[k] += v
		}
		if len(alone.Metrics.Histograms) != 0 {
			t.Fatalf("run %d carries histograms; sum them here too", i)
		}
	}
	if !reflect.DeepEqual(rep.Metrics, want) {
		t.Errorf("report metrics are not the sum of the runs'\n got  %v\n want %v", rep.Metrics, want)
	}
}
