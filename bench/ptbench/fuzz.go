package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/fuzz"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// fuzz-batch runs the coverage-guided fuzzer over its three input targets
// (exp1 and exp2 stdin, one wu-ftpd command line): fuzz.Fuzz with
// fuzzExecs execs per target on two workers, a fresh seed per batch. It
// takes the campaign's fork path with short execs, each paying for a
// 64 KiB coverage map, provenance labels, mutation and trimming. An op is
// one budgeted exec; latency is per batch.

// fuzzExecs is the budgeted execs per target and batch (tests shrink it).
var fuzzExecs = 1500

type fuzzBench struct {
	seed    int64
	calls   int // run and trace calls so far; each gets its own seed stream
	targets []*fuzz.Target
	base    []metrics.Snapshot // each target's counters at its snapshot

	firstCfg fuzz.Config // the measured window's first batch, kept for
	firstRep []byte      // the determinism and replay oracles
}

func setupFuzz(seed int64) (bench, error) {
	targets, err := fuzz.PrepareTargets(fuzz.Config{})
	if err != nil {
		return nil, err
	}
	b := &fuzzBench{seed: seed, targets: targets}
	for _, t := range targets {
		b.base = append(b.base, t.Snapshot().Fork().Metrics())
	}
	return b, nil
}

func (b *fuzzBench) config(stream, k int, w int) fuzz.Config {
	return fuzz.Config{Seed: mix(mix(b.seed, uint64(stream)), uint64(k)), Execs: fuzzExecs, Workers: w}
}

// checkReport counts a batch's failed execs: a play that returned an
// error instead of an outcome lands in an "error:" finding.
func checkReport(t *tally, rep *fuzz.Report) {
	for name, tr := range rep.Targets {
		for _, f := range tr.Findings {
			if strings.HasPrefix(f.Fingerprint, "error:") {
				t.fail(f.Count, "%s: %s", name, f.Evidence)
			}
		}
	}
}

func (b *fuzzBench) run(d time.Duration) (*tally, error) {
	stream := b.calls
	b.calls++
	t := &tally{}
	deadline := time.Now().Add(d)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		cfg := b.config(stream, k, workers)
		w := startWatch()
		rep, err := fuzz.Fuzz(cfg, b.targets)
		t.lat = append(t.lat, time.Since(w.wall))
		if err != nil {
			t.ops += fuzzExecs * len(b.targets)
			t.fail(fuzzExecs*len(b.targets), "batch %d: %v", k, err)
			continue
		}
		execs, instrs := 0, uint64(0)
		for _, tr := range rep.Targets {
			execs += tr.Execs
			instrs += tr.Instructions
		}
		t.lap(w, execs, instrs)
		checkReport(t, rep)
		if stream == 1 && k == 0 {
			b.firstCfg = cfg
			if b.firstRep, err = json.Marshal(rep); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// fuzzExec is one Play call the fuzzer made, with the class it produced.
type fuzzExec struct {
	target int
	input  []byte
	class  string
}

func execClass(out attack.Outcome, err error) string {
	return fault.ClassifyOutcome(fault.ArmAttack, out, err).String()
}

// capture runs one batch on one worker with every target's Play wrapped:
// each call is timed as a fuzz.play span under the batch's fuzz.engine
// span and recorded, so the replay rounds re-execute exactly the execs
// (trims included) the fuzzer ran.
func (b *fuzzBench) capture(cfg fuzz.Config, log *spanLog) ([]fuzzExec, *fuzz.Report, error) {
	tr, off := log.tracer()
	engine := tr.Start(nil, "fuzz.engine")
	var execs []fuzzExec
	for i, t := range b.targets {
		orig := t.Play
		t.Play = func(m *attack.Machine, input []byte) (attack.Outcome, error) {
			sp := tr.Start(engine, "fuzz.play")
			out, err := orig(m, input)
			sp.End()
			sp = tr.Start(engine, "bench.check")
			execs = append(execs, fuzzExec{i, append([]byte(nil), input...), execClass(out, err)})
			sp.End()
			return out, err
		}
		defer func() { t.Play = orig }()
	}
	cfg.Workers = 1
	rep, err := fuzz.Fuzz(cfg, b.targets)
	engine.End()
	log.fold(tr, off)
	return execs, rep, err
}

// replayExec is one exec through the public calls: fork, coverage map
// attach, the target's input delivery, feature extraction.
func (b *fuzzBench) replayExec(tr *obs.Tracer, op *obs.Span, e fuzzExec, cm *cpu.CovMap, feats []uint32) (string, []uint32, metrics.Snapshot) {
	t := b.targets[e.target]
	sp := tr.Start(op, "attack.fork")
	m := t.Snapshot().Fork()
	m.SetBudget(t.Budget())
	sp.End()
	sp = tr.Start(op, "cpu.covmap_reset")
	cm.Reset()
	m.CPU.SetCovMap(cm)
	sp.End()
	out, err := play(tr, op, t.Scenario.Name, m, e.input)
	sp = tr.Start(op, "cpu.cov_features")
	feats = cm.Features(feats[:0])
	sp.End()
	sp = tr.Start(op, "metrics.capture")
	met := m.Metrics()
	sp.End()
	return execClass(out, err), feats, met
}

func (b *fuzzBench) trace(d time.Duration, log *spanLog) (*tally, map[string]float64, error) {
	stream := b.calls
	b.calls++
	t := &tally{}
	c := counters{}
	var pair []fuzzExec
	var execs, trims, admitted int
	cm := new(cpu.CovMap)
	var feats []uint32
	prep := func(j int) error {
		var rep *fuzz.Report
		var err error
		cfg := b.config(stream, j, 1)
		pair, rep, err = b.capture(cfg, log)
		if err != nil {
			return err
		}
		if j == 0 {
			// The oracle re-runs this batch on two workers: the report
			// must not depend on the worker count either.
			b.firstCfg = cfg
			b.firstCfg.Workers = workers
			if b.firstRep, err = json.Marshal(rep); err != nil {
				return err
			}
		}
		checkReport(t, rep)
		for _, tr := range rep.Targets {
			execs += tr.Execs
			trims += tr.TrimExecs
			admitted += tr.CorpusSize
		}
		return nil
	}
	o, err := alternate(d, log, prep, func(j int, l *spanLog) (int, error) {
		for i, e := range pair {
			tr, off := l.tracer()
			op := tr.Start(nil, "op")
			var class string
			var met metrics.Snapshot
			class, feats, met = b.replayExec(tr, op, e, cm, feats)
			op.End()
			l.fold(tr, off)
			t.ops++
			if class != e.class {
				t.fail(1, "exec %d replayed as %s, fuzzer saw %s", i, class, e.class)
			}
			if l != nil {
				c.add(met, b.base[e.target])
			}
		}
		return len(pair), nil
	})
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{
		"fuzz.trim_share":         ratio(float64(trims), float64(execs+trims)),
		"fuzz.corpus_admit_ratio": ratio(float64(admitted), float64(execs)),
	}
	c.machineLayers(log.ops, vals)
	o.goLayers(vals)
	return t, vals, nil
}

// check holds the measured window's first batch to two oracles: run again
// it must produce a byte-identical report, and every finding's witness
// and every corpus entry replayed through Fork/SetCovMap/Play must
// reproduce its recorded class and fingerprint.
func (b *fuzzBench) check() error {
	if b.firstRep == nil {
		return nil
	}
	rep, err := fuzz.Fuzz(b.firstCfg, b.targets)
	if err != nil {
		return err
	}
	again, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(again, b.firstRep) {
		return fmt.Errorf("batch seed %d: report differs when run twice", b.firstCfg.Seed)
	}
	cm := new(cpu.CovMap)
	for _, t := range b.targets {
		tr := rep.Targets[t.Scenario.Name]
		// replay returns the input's class and fingerprint ("error:" when
		// Play failed) and how many edges it covered.
		replay := func(hexInput string) (class, fp string, edges int, err error) {
			input, err := hex.DecodeString(hexInput)
			if err != nil {
				return "", "", 0, err
			}
			m := t.Snapshot().Fork()
			m.SetBudget(t.Budget())
			cm.Reset()
			m.CPU.SetCovMap(cm)
			out, playErr := t.Play(m, input)
			fp = "error:"
			if playErr == nil {
				fp = fuzz.Fingerprint(out)
			}
			return execClass(out, playErr), fp, cm.Edges(), nil
		}
		for _, f := range tr.Findings {
			class, fp, _, err := replay(f.Input)
			if err != nil {
				return err
			}
			if class != f.Class || (fp != f.Fingerprint && !strings.HasPrefix(fp, "error:")) {
				return fmt.Errorf("%s finding %q (%s) replays as %q (%s)", t.Scenario.Name, f.Fingerprint, f.Class, fp, class)
			}
		}
		for _, e := range tr.Corpus {
			_, fp, edges, err := replay(e.Input)
			if err != nil {
				return err
			}
			if edges == 0 || strings.HasPrefix(fp, "error:") {
				return fmt.Errorf("%s corpus entry %d replays as %q with %d edges", t.Scenario.Name, e.Exec, fp, edges)
			}
		}
	}
	return nil
}

func (b *fuzzBench) close() {}
