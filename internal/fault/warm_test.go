package fault

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
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
// over a warm campaign. An armed fork joins its family's shared fact-free
// block table and reuses the superblocks any sibling compiled there, so a
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
