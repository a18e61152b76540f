package fuzz

import (
	"runtime"
	"testing"
)

// fuzzExecAllocBudget bounds the heap one warm fuzz exec allocates: its
// candidate, the fork of the target's entry snapshot, the run with
// provenance on and the coverage features. A fork copies no label and no
// provenance table, so an exec pays for the pages and label words it
// writes, the kernel and network copies and its own provenance nodes.
// The heaviest target measured 31 KB per exec on linux/amd64.
const fuzzExecAllocBudget = 40 << 10

// TestFuzzExecAllocBudget holds a warm exec — candidate plus runOne —
// to fuzzExecAllocBudget per target, averaged over 200 execs. runOne
// takes its coverage map from a pool, so the race build, whose pools drop
// items, is skipped.
func TestFuzzExecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops coverage maps at random")
	}
	targets, err := PrepareTargets(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const execs = 200
	for _, tg := range targets {
		g := genState{seed: 1, execs: len(tg.Seeds)}
		for i := 0; i < 64; i++ { // warm the block table and the pools
			runOne(tg, g.candidate(tg, i))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < execs; i++ {
			g.gen = 1 + i/64
			runOne(tg, g.candidate(tg, i%64))
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / execs
		if per > fuzzExecAllocBudget {
			t.Errorf("%s: a warm fuzz exec allocates %d KB, budget %d KB", tg.Scenario.Name, per>>10, fuzzExecAllocBudget>>10)
		} else {
			t.Logf("%s: a warm fuzz exec allocates %d KB", tg.Scenario.Name, per>>10)
		}
	}
}
