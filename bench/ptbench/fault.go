package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/taint"
)

// fault-campaign runs seeded fault-injection campaigns (fault.Campaign,
// faultRuns runs on two workers, a fresh seed per campaign) over all six
// targets, the three attack scenarios and the benign exp1, gzips and
// parsers runs, with the faultInjectors fault models. InjectAt flushes
// static facts, blocks and superblocks mid-run, so it uses the cpu tiers
// unlike spec-suite, and its set-up is fault.PrepareTargets under the
// attack.Force* globals. An op is one injected run; latency is per
// campaign.

// faultRuns is the runs per campaign (tests shrink it).
var faultRuns = 600

type faultBench struct {
	seed    int64
	calls   int // run and trace calls so far; each gets its own seed stream
	targets []*fault.Target
	byName  map[string]*fault.Target
	mirror  map[string]*mirrorTarget // built on first use

	firstCfg fault.Config
	firstRep []byte
}

// faultInjectors are the fault models the campaigns draw from: the
// control arm, the two taint-shadow faults and input garbling. The value
// flips (mem-flip, reg-flip) stay out: now and then one turns a syscall
// length into a huge number (about one reg-flip run in 3000), and the
// kernel's read and write then allocate and fill a host buffer of that
// size, outside the guest's resident-memory limit, which drove this
// benchmark past 6 GiB of RSS.
var faultInjectors = []string{"none", "taint-loss", "taint-spurious", "input-garble"}

func setupFault(seed int64) (bench, error) {
	targets, err := fault.PrepareTargets(fault.Config{}, nil)
	if err != nil {
		return nil, err
	}
	b := &faultBench{seed: seed, targets: targets, byName: make(map[string]*fault.Target)}
	for _, t := range targets {
		b.byName[t.Name] = t
	}
	return b, nil
}

func (b *faultBench) config(stream, k int) fault.Config {
	return fault.Config{Seed: mix(mix(b.seed, uint64(stream)), uint64(k)), Runs: faultRuns, Workers: workers,
		InjectorNames: faultInjectors}
}

// campaign runs one campaign and checks it: the report's invariants
// (fault.Report.Check), complete accounting, and no run the pool guard had
// to retry or abandon. It returns the report and the guest instructions
// its runs retired past their snapshots.
func (b *faultBench) campaign(t *tally, cfg fault.Config) (*fault.Report, uint64, error) {
	rep, err := fault.Campaign(cfg, b.targets, true)
	if err != nil {
		return nil, 0, err
	}
	sum := 0
	for _, n := range rep.Outcomes {
		sum += n
	}
	if rep.Runs != cfg.Runs || sum != cfg.Runs {
		t.fail(1, "campaign %d: %d of %d runs, %d classified", cfg.Seed, rep.Runs, cfg.Runs, sum)
	}
	if rep.Retries > 0 {
		t.fail(rep.Retries, "campaign %d: %d runs retried after a panic", cfg.Seed, rep.Retries)
	}
	if err := rep.Check(); err != nil {
		t.fail(1, "campaign %d: %v", cfg.Seed, err)
	}
	var instrs uint64
	for _, r := range rep.Results {
		if c, ok := r.Metrics.Counters["cpu.instructions"]; ok {
			instrs += c - b.byName[r.Target].Base
		}
	}
	return rep, instrs, nil
}

func (b *faultBench) run(d time.Duration) (*tally, error) {
	stream := b.calls
	b.calls++
	t := &tally{}
	deadline := time.Now().Add(d)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		cfg := b.config(stream, k)
		w := startWatch()
		rep, instrs, err := b.campaign(t, cfg)
		if err != nil {
			return nil, err
		}
		t.lat = append(t.lat, time.Since(w.wall))
		t.lap(w, len(rep.Results), instrs)
		if stream == 1 && k == 0 {
			b.firstCfg = cfg
			if b.firstRep, err = json.Marshal(rep); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// mirrorTarget rebuilds one fault target through the public calls, so a
// traced replay can fork it and time the session's layers: fault.Target
// keeps its snapshot and session private. Its instruction base and
// control-session length must equal the fault package's.
type mirrorTarget struct {
	arm        fault.Arm
	snap       *attack.Snapshot
	base       uint64
	baseMet    metrics.Snapshot
	sessionLen uint64
	session    func(tr *obs.Tracer, op *obs.Span, m *attack.Machine) (attack.Outcome, error)
}

// mirrors builds the mirror targets the way fault.PrepareTargets builds
// its own: the attack scenarios' snapshot points, and the benign exp1,
// gzips and parsers boots.
func (b *faultBench) mirrors() (map[string]*mirrorTarget, error) {
	if b.mirror == nil {
		if err := b.buildMirrors(); err != nil {
			return nil, err
		}
	}
	return b.mirror, nil
}

func (b *faultBench) buildMirrors() error {
	payload, uidAddr, err := attack.CalibrateWuFTPDFormat()
	if err != nil {
		return err
	}
	out := make(map[string]*mirrorTarget)
	add := func(name string, arm fault.Arm, m *attack.Machine, session func(*obs.Tracer, *obs.Span, *attack.Machine) (attack.Outcome, error)) error {
		snap, err := m.Snapshot()
		if err != nil {
			return err
		}
		mt := &mirrorTarget{arm: arm, snap: snap, base: snap.Stats().Instructions,
			baseMet: snap.Fork().Metrics(), session: session}
		ctl := snap.Fork()
		if _, err := session(nil, nil, ctl); err != nil {
			return err
		}
		mt.sessionLen = ctl.CPU.Stats().Instructions - mt.base
		ft := b.byName[name]
		if ft == nil || ft.Base != mt.base || ft.SessionLen != mt.sessionLen {
			return fmt.Errorf("mirror of fault target %s disagrees with fault.PrepareTargets", name)
		}
		out[name] = mt
		return nil
	}
	for _, sc := range attack.Scenarios() {
		m, err := sc.Prepare(taint.PolicyPointerTaintedness)
		if err != nil {
			return err
		}
		session := func(tr *obs.Tracer, op *obs.Span, m *attack.Machine) (attack.Outcome, error) {
			sp := tr.Start(op, "attack.session")
			defer sp.End()
			return sc.Session(m)
		}
		if sc.Name == "wuftpd-site-exec" {
			session = func(tr *obs.Tracer, op *obs.Span, m *attack.Machine) (attack.Outcome, error) {
				return wuftpdSession(tr, op, m, payload, uidAddr)
			}
		}
		if err := add(sc.Name, fault.ArmAttack, m, session); err != nil {
			return err
		}
	}
	benign := func(tr *obs.Tracer, op *obs.Span, m *attack.Machine) (attack.Outcome, error) {
		return runClassify(tr, op, m), nil
	}
	for _, bt := range []struct{ name, prog, stdin string }{
		{"exp1-benign", "exp1", "hi\n"},
		{"gzips", "gzips", "benign input\n"},
		{"parsers", "parsers", "benign input\n"},
	} {
		p, ok := progs.ByName(bt.prog)
		if !ok {
			return fmt.Errorf("program %s missing", bt.prog)
		}
		m, err := attack.Boot(p, attack.Options{
			Policy: taint.PolicyPointerTaintedness,
			Stdin:  []byte(bt.stdin),
			Files:  map[string][]byte{"/input": progs.SpecInput(bt.prog, 1)},
		})
		if err != nil {
			return err
		}
		if err := add(bt.name, fault.ArmBenign, m, benign); err != nil {
			return err
		}
	}
	b.mirror = out
	return nil
}

// replayRun re-executes one recorded run on its mirror target: the same
// per-run seed (splitmix64 of the campaign seed and run index, as the
// fault package derives it), trigger, injector and tightened step budget.
// It fails unless the injection does what the campaign recorded, and
// returns the run's class and counters.
func (b *faultBench) replayRun(tr *obs.Tracer, op *obs.Span, mirrors map[string]*mirrorTarget, seed int64, r fault.RunResult) (string, metrics.Snapshot, error) {
	mt := mirrors[r.Target]
	in, ok := fault.InjectorByName(r.Injector)
	if mt == nil || !ok {
		return "", metrics.Snapshot{}, fmt.Errorf("run %d: unknown target %q or injector %q", r.Index, r.Target, r.Injector)
	}
	rng := rand.New(rand.NewSource(mix(seed, uint64(r.Index))))
	if trigger := 1 + uint64(rng.Int63n(int64(mt.sessionLen))); trigger != r.Trigger {
		return "", metrics.Snapshot{}, fmt.Errorf("run %d: trigger %d, fault recorded %d", r.Index, trigger, r.Trigger)
	}
	sp := tr.Start(op, "attack.fork")
	m := mt.snap.Fork()
	m.SetBudget(mt.base + 4*mt.sessionLen + 100_000)
	var detail string
	if in.Name == "none" {
		detail = "control"
	} else {
		m.CPU.InjectAt(mt.base+r.Trigger, func(*cpu.CPU) { detail = in.Apply(m, rng).Detail })
	}
	sp.End()
	out, err := mt.session(tr, op, m)
	sp = tr.Start(op, "metrics.capture")
	met := m.Metrics()
	sp.End()
	if detail != r.Detail {
		return "", metrics.Snapshot{}, fmt.Errorf("run %d: injection %q, fault recorded %q", r.Index, detail, r.Detail)
	}
	return fault.ClassifyOutcome(mt.arm, out, err).String(), met, nil
}

func (b *faultBench) trace(d time.Duration, log *spanLog) (*tally, map[string]float64, error) {
	stream := b.calls
	b.calls++
	mirrors, err := b.mirrors()
	if err != nil {
		return nil, nil, err
	}
	t := &tally{}
	c := counters{}
	var cfg fault.Config
	var rep *fault.Report
	prep := func(j int) error {
		cfg = b.config(stream, j)
		var err error
		if rep, _, err = b.campaign(t, cfg); err != nil || j > 0 {
			return err
		}
		b.firstCfg = cfg
		b.firstRep, err = json.Marshal(rep)
		return err
	}
	o, err := alternate(d, log, prep, func(j int, l *spanLog) (int, error) {
		for _, r := range rep.Results {
			tr, off := l.tracer()
			op := tr.Start(nil, "op")
			class, met, err := b.replayRun(tr, op, mirrors, cfg.Seed, r)
			op.End()
			l.fold(tr, off)
			if err != nil {
				return 0, err
			}
			t.ops++
			if class != r.Class {
				t.fail(1, "run %d %s/%s replayed as %s, campaign recorded %s", r.Index, r.Target, r.Injector, class, r.Class)
			}
			if l != nil {
				c.add(met, mirrors[r.Target].baseMet)
			}
		}
		return len(rep.Results), nil
	})
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{}
	c.machineLayers(log.ops, vals)
	o.goLayers(vals)
	return t, vals, nil
}

// check holds the measured window's first campaign to two oracles: run
// again it produces a byte-identical report, and each of its runs
// replayed on the mirror targets lands in the class it recorded.
func (b *faultBench) check() error {
	if b.firstRep == nil {
		return nil
	}
	t := &tally{}
	rep, _, err := b.campaign(t, b.firstCfg)
	if err != nil {
		return err
	}
	if t.failed > 0 {
		return fmt.Errorf("re-run: %v", t.errs)
	}
	again, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(again, b.firstRep) {
		return fmt.Errorf("campaign seed %d: report differs when run twice", b.firstCfg.Seed)
	}
	mirrors, err := b.mirrors()
	if err != nil {
		return err
	}
	for _, r := range rep.Results {
		class, _, err := b.replayRun(nil, nil, mirrors, b.firstCfg.Seed, r)
		if err != nil {
			return err
		}
		if class != r.Class {
			return fmt.Errorf("run %d %s/%s replays as %s, recorded %s", r.Index, r.Target, r.Injector, class, r.Class)
		}
	}
	return nil
}

func (b *faultBench) close() {}
