package main

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/taint"
)

// campaign-wuftpd replays the paper's Table 2 attack (the wu-ftpd SITE
// EXEC format string) over copy-on-write forks of one booted daemon,
// exactly as ptcampaign does: campaign.ForEachGuarded fans chunks of
// sessions over two workers, each session is fork -> Scenario.Session ->
// Machine.Metrics, and campaign.Summarize folds every chunk. The
// attacker's dialogue is fixed by the scenario, so the seed changes
// nothing here; every session must fingerprint identically.

// campaignChunk is the sessions per ForEachGuarded call (tests shrink it).
var campaignChunk = 512

type campaignBench struct {
	sc      attack.Scenario
	snap    *attack.Snapshot
	base    cpu.Stats
	baseMet metrics.Snapshot
	payload string
	uidAddr uint32
	want    string // every session's campaign.SessionFingerprint
}

func setupCampaign(int64) (bench, error) {
	sc, ok := attack.ScenarioByName("wuftpd-site-exec")
	if !ok {
		return nil, fmt.Errorf("scenario wuftpd-site-exec missing")
	}
	m, err := sc.Prepare(taint.PolicyPointerTaintedness)
	if err != nil {
		return nil, err
	}
	snap, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	payload, uidAddr, err := attack.CalibrateWuFTPDFormat()
	if err != nil {
		return nil, err
	}
	b := &campaignBench{
		sc: sc, snap: snap, base: snap.Stats(),
		baseMet: snap.Fork().Metrics(), payload: payload, uidAddr: uidAddr,
	}
	r := b.session()
	if !r.Outcome.Detected || r.Err != nil {
		return nil, fmt.Errorf("reference session not detected: %s", campaign.SessionFingerprint(r))
	}
	b.want = campaign.SessionFingerprint(r)
	return b, nil
}

// session is one library session: fork -> Scenario.Session -> Metrics.
func (b *campaignBench) session() campaign.Result {
	m := b.snap.Fork()
	out, err := b.sc.Session(m)
	return campaign.Result{Outcome: out, Stats: m.CPU.Stats(), Metrics: m.Metrics(), Err: err}
}

func (b *campaignBench) run(d time.Duration) (*tally, error) {
	t := &tally{}
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		w := startWatch()
		lat := make([]time.Duration, campaignChunk)
		bad := make([]string, campaignChunk)
		results, _, err := campaign.ForEachGuarded(campaignChunk, workers, campaign.GuardOpts{},
			func(i, attempt int) (campaign.Result, error) {
				start := time.Now()
				r := b.session()
				lat[i] = time.Since(start)
				if fp := campaign.SessionFingerprint(r); fp != b.want {
					bad[i] = fp
				}
				return r, nil
			})
		sum := campaign.Summarize(results, b.base)
		t.lap(w, len(results), sum.Instructions)
		t.lat = append(t.lat, lat...)
		if err != nil {
			t.fail(1, "pool: %v", err)
		}
		good := 0
		for i, fp := range bad {
			if fp == "" {
				good++
			} else {
				t.fail(1, "session %d: %s", i, fp)
			}
		}
		if sum.Detected != good {
			t.fail(1, "summary counts %d detected of %d good sessions", sum.Detected, good)
		}
	}
	return t, nil
}

// replay is session() through the public Machine/netsim calls, timed
// per layer.
func (b *campaignBench) replay(tr *obs.Tracer, op *obs.Span) campaign.Result {
	sp := tr.Start(op, "attack.fork")
	m := b.snap.Fork()
	sp.End()
	out, err := wuftpdSession(tr, op, m, b.payload, b.uidAddr)
	mc := tr.Start(op, "metrics.capture")
	met := m.Metrics()
	mc.End()
	return campaign.Result{Outcome: out, Stats: m.CPU.Stats(), Metrics: met, Err: err}
}

func (b *campaignBench) trace(d time.Duration, log *spanLog) (*tally, map[string]float64, error) {
	t := &tally{}
	c := counters{}
	var lat []float64
	o, err := alternate(d, log, nil, func(j int, l *spanLog) (int, error) {
		results := make([]campaign.Result, 0, campaignChunk)
		for i := 0; i < campaignChunk; i++ {
			tr, off := l.tracer()
			start := time.Now()
			op := tr.Start(nil, "op")
			r := b.replay(tr, op)
			chk := tr.Start(op, "bench.check")
			fp := campaign.SessionFingerprint(r)
			chk.End()
			op.End()
			l.fold(tr, off)
			t.ops++
			if fp != b.want {
				t.fail(1, "replayed session: %s", fp)
			}
			if l == nil {
				lat = append(lat, float64(time.Since(start))/1e6)
			} else {
				c.add(r.Metrics, b.baseMet)
			}
			results = append(results, r)
		}
		tr, off := l.tracer()
		sp := tr.Start(nil, "campaign.summarize")
		campaign.Summarize(results, b.base)
		sp.End()
		l.fold(tr, off)
		return len(results), nil
	})
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{"campaign.p99_ms": quantile(lat, 0.99)}
	c.machineLayers(log.ops, vals)
	o.goLayers(vals)
	return t, vals, nil
}

// check is the replay oracle: a session replayed through the public
// calls fingerprints identically to Scenario.Session on a fork.
func (b *campaignBench) check() error {
	if fp := campaign.SessionFingerprint(b.replay(nil, nil)); fp != b.want {
		return fmt.Errorf("replayed dialogue diverges from Scenario.Session:\n%s\n%s", fp, b.want)
	}
	return nil
}

func (b *campaignBench) close() {}
