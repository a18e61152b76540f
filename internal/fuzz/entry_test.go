package fuzz

import (
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/kernel"
)

// execView is everything an exec is held to when it is run two ways.
type execView struct {
	class, fp string
	instrs    uint64
	feats     []uint32
	edges     int
	memFP     uint64
	input     kernel.InputStats
	stats     [8]uint64
}

// view summarizes a played machine and the map it ran under.
func view(r execResult, m *attack.Machine, cm *cpu.CovMap) execView {
	s := m.CPU.Stats()
	return execView{
		class:  classLabel(r),
		fp:     Fingerprint(r.out),
		instrs: r.instrs,
		feats:  r.feats,
		edges:  cm.Edges(),
		memFP:  m.Mem.Fingerprint(),
		input:  m.InputStats(),
		// The architectural counters the differential harness compares,
		// and the taint-datapath split. Block and superblock counters
		// follow superblock heat, which a fork of the entry snapshot
		// starts without.
		stats: [8]uint64{s.Instructions, s.Loads, s.Stores, s.Branches, s.Syscalls, s.Alerts,
			s.CleanSkips, s.TaintedSteps},
	}
}

// bootFork plays input the way replay harnesses do: a fork of the boot
// snapshot under a zeroed map, the whole session delivered by Play.
func bootFork(t *Target, input []byte) execView {
	cm := new(cpu.CovMap)
	m := t.Snapshot().Fork()
	m.SetBudget(t.Budget())
	m.CPU.SetCovMap(cm)
	out, err := t.Play(m, input)
	r := execResult{ok: true, out: out, err: err,
		feats: cm.Features(nil), instrs: m.CPU.Stats().Instructions - t.base}
	return view(r, m, cm)
}

// TestEntryForkMatchesBootFork: an exec forked past the prelude from the
// entry snapshot is the exec a fork of the boot snapshot runs, on every
// target and both engines, over the seeds, the checked-in corpus and a
// generation of mutated candidates: same class, fingerprint, instruction
// count, coverage features and edges, memory, input accounting and
// architectural counters.
func TestEntryForkMatchesBootFork(t *testing.T) {
	corpus := loadCorpusFiles(t)
	for _, engine := range []struct {
		name      string
		reference bool
	}{{"fast", false}, {"reference", true}} {
		t.Run(engine.name, func(t *testing.T) {
			targets, err := PrepareTargets(Config{Reference: engine.reference})
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			for _, tgt := range targets {
				name := tgt.Scenario.Name
				if (tgt.Prelude != nil) == (tgt.entry == tgt.snap) {
					t.Errorf("%s: entry snapshot does not follow the prelude", name)
				}
				inputs := slices.Clone(tgt.Seeds)
				var parents [][]byte
				for _, cf := range corpus {
					if cf.Target != name {
						continue
					}
					in, err := hex.DecodeString(cf.Input)
					if err != nil {
						t.Fatalf("%s: bad corpus hex: %v", name, err)
					}
					parents = append(parents, in)
				}
				inputs = append(inputs, parents...)
				g := genState{seed: 1, gen: 1, execs: len(tgt.Seeds), corp: parents}
				for slot := 0; slot < 64; slot++ {
					inputs = append(inputs, g.candidate(tgt, slot))
				}

				cm := new(cpu.CovMap)
				for _, in := range inputs {
					r, m := playEntry(tgt, cm, in)
					got, want := view(r, m, cm), bootFork(tgt, in)
					if got.class != want.class || got.fp != want.fp || got.instrs != want.instrs ||
						!slices.Equal(got.feats, want.feats) || got.edges != want.edges ||
						got.memFP != want.memFP || got.input != want.input || got.stats != want.stats {
						t.Errorf("%s input %q:\n entry fork %+v\n boot fork  %+v", name, in, got, want)
						break
					}
				}
			}
		})
	}
}
