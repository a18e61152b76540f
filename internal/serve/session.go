package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/asm"
	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/fuzz"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/taint"
)

// Session kinds: which engine runs the submitted work.
const (
	// KindRun boots the tenant's own assembly image and classifies one
	// run — the raw "bring your own guest" surface, and therefore the
	// hostile one: runaway loops, memory hogs, crashers all land here and
	// must resolve to structured outcomes.
	KindRun = "run"
	// KindCampaign replays a prepared attack scenario N times over
	// snapshot forks (the default kind).
	KindCampaign = "campaign"
	// KindFault runs a seeded fault-injection campaign over the prepared
	// targets.
	KindFault = "fault"
	// KindFuzz runs a seeded coverage-guided fuzzing session against one
	// prepared target.
	KindFuzz = "fuzz"
)

// SessionRequest is one tenant work order.
type SessionRequest struct {
	// Tenant names the submitting tenant (required).
	Tenant string `json:"tenant"`
	// Kind selects the engine (default "campaign").
	Kind string `json:"kind,omitempty"`
	// Scenario names the prepared target (campaign/fault/fuzz kinds).
	Scenario string `json:"scenario,omitempty"`
	// Source is the guest assembly for run-kind sessions; it is the
	// tenant's image, subject to the image-size quota.
	Source string `json:"source,omitempty"`
	// Stdin is the guest's input stream (tainted on read, like any
	// external input).
	Stdin string `json:"stdin,omitempty"`
	// Sessions is the campaign width (default 4, capped).
	Sessions int `json:"sessions,omitempty"`
	// Runs is the fault-campaign run count (default 60, capped).
	Runs int `json:"runs,omitempty"`
	// Execs is the fuzz exec budget (default 256, capped).
	Execs int `json:"execs,omitempty"`
	// Seed drives every seeded engine; same request + same seed ⇒
	// byte-identical result body.
	Seed int64 `json:"seed,omitempty"`
	// Budget optionally tightens the per-run instruction budget; asking
	// for more than the service quota is rejected at admission.
	Budget uint64 `json:"budget,omitempty"`
}

// Session statuses.
const (
	// StatusOK: the engine ran to a verdict — including verdicts that
	// contained a hostile guest (watchdog, memory cap). Containment is a
	// result, not a server failure.
	StatusOK = "ok"
	// StatusTimeout: the wall-clock deadline reaped the session after its
	// retries — the structured Timeout outcome.
	StatusTimeout = "timeout"
	// StatusError: the session resolved to a structured error (build
	// failure, session error, recovered panic).
	StatusError = "error"
)

// SessionResult is the terminal answer for one session. Everything except
// ID, Stats, and Interrupted is a deterministic function of the request:
// identical at any worker count, queue depth, or co-tenant load.
type SessionResult struct {
	ID     uint64 `json:"id"`
	Tenant string `json:"tenant"`
	Kind   string `json:"kind"`
	Status string `json:"status"`
	// Outcome is the single-run verdict line (run kind).
	Outcome string `json:"outcome,omitempty"`
	// Outcomes maps verdict labels to counts (campaign/fault/fuzz kinds).
	Outcomes map[string]int `json:"outcomes,omitempty"`
	// Fingerprints are the canonical per-session result lines (campaign
	// kind) — the byte-identity surface for determinism checks.
	Fingerprints []string `json:"fingerprints,omitempty"`
	// Retries is the pool guard's extra-attempt count for this session.
	Retries int `json:"retries"`
	// Interrupted marks a session drained by shutdown: partial results,
	// flushed rather than dropped.
	Interrupted bool   `json:"interrupted,omitempty"`
	Error       string `json:"error,omitempty"`
	// Stats embeds the tenant's observability block at response time.
	Stats TenantStats `json:"tenant_stats"`

	code int // HTTP status; 0 = 200

	// mach is the session machine's metrics snapshot (merged across runs
	// for campaign kinds), absorbed into the fleet registry at settle.
	// flights carries the engine's per-run anomaly flight records for the
	// artifact dump. Neither is part of the JSON response body.
	mach    metrics.Snapshot
	flights []*obs.Flight
}

// runSession dispatches one admitted session to its engine.
func (s *Server) runSession(j *job) *SessionResult {
	res := &SessionResult{ID: j.id, Tenant: j.tenant, Kind: j.req.Kind, Status: StatusOK}
	switch j.req.Kind {
	case KindRun:
		s.runOne(j, res)
	case KindCampaign:
		s.runCampaign(j, res)
	case KindFault:
		s.runFault(j, res)
	case KindFuzz:
		s.runFuzz(j, res)
	default: // admission already filtered; defensive
		res.Status, res.Error, res.code = StatusError, "unknown kind", http.StatusBadRequest
	}
	return res
}

// budgetFor resolves the per-run instruction budget: the tenant may
// tighten the service quota, never exceed it (admission enforced).
func (s *Server) budgetFor(req *SessionRequest) uint64 {
	if req.Budget > 0 {
		return req.Budget
	}
	return s.cfg.Containment.Budget
}

// runOne boots the tenant's own image and classifies a single run. This
// is the hostile surface: the guest is contained by the step budget, the
// resident-memory cap, and the wall deadline, in that order of
// preference — the first two are deterministic.
func (s *Server) runOne(j *job, res *SessionResult) {
	req := &j.req
	bs := j.tr.Start(nil, "build")
	im, err := asm.AssembleString(req.Source)
	bs.End()
	if err != nil {
		res.Status = StatusError
		res.Error = "build: " + err.Error()
		res.code = http.StatusUnprocessableEntity
		return
	}
	cfg := core.Config{
		ProgName: "tenant-guest",
		Policy:   taint.PolicyPointerTaintedness,
		Stdin:    []byte(req.Stdin),
		Budget:   s.budgetFor(req),
		MemLimit: s.cfg.Containment.MemLimit,
	}
	// The single slot runs attempts sequentially, so the hoisted machine
	// snapshot is the last completed attempt's — the one whose outcome the
	// session reports.
	var mach metrics.Snapshot
	out, errs, gs := campaign.ForEachGuardedSlots(1, 1, s.guardOpts(req.Seed),
		func(i, attempt int) (attack.Outcome, error) {
			sp := j.tr.Start(nil, "boot")
			m, err := core.BootImage(cfg, im)
			sp.End()
			if err != nil {
				return attack.Outcome{}, fmt.Errorf("boot: %w", err)
			}
			// Stream-only: the SSE hub keeps its own replay buffer.
			sink := m.CPU.EnableEvents(0)
			sink.Stream(func(e cpu.Event) { s.hub.publish(j.id, e) })
			gsp := j.tr.Start(nil, "guest-run")
			tr := m.Run()
			gsp.End()
			csp := j.tr.Start(nil, "classify")
			o := attack.Classify(tr)
			csp.End()
			mach = m.Metrics()
			return o, nil
		})
	res.Retries = gs.Retries
	res.mach = mach
	if s.resolveSlotErr(errs[0], res) {
		return
	}
	res.Outcome = out[0].String()
	res.Outcomes = map[string]int{campaign.Label(out[0], nil): 1}
}

// runCampaign replays a prepared scenario over snapshot forks.
func (s *Server) runCampaign(j *job, res *SessionResult) {
	req := &j.req
	entry := s.snaps[req.Scenario]
	n := req.Sessions
	if n == 0 {
		n = 4
	}
	// Per-slot work is scheduled by the pool, so child spans would be
	// ordered by worker timing; only the deterministic sequential stages
	// (the fork fan-out as a whole, then the merge) get spans.
	fsp := j.tr.Start(nil, "snapshot-fork")
	results, gs := campaign.RunGuarded(entry.snap, n, sessionWorkers,
		s.guardOpts(req.Seed),
		func(i int, m *attack.Machine) (attack.Outcome, error) {
			return entry.scenario.Session(m)
		})
	fsp.End()
	res.Retries = gs.Retries
	if gs.Stopped > 0 {
		res.Interrupted = true
		results = results[:gs.Started]
	}
	msp := j.tr.Start(nil, "merge")
	sum := campaign.Summarize(results, entry.snap.Stats())
	res.Outcomes = sum.Outcomes
	res.Fingerprints = campaign.Fingerprints(results)
	res.mach = sum.Metrics
	msp.End()
	// One uniform deadline verdict beats N per-slot ones: if the whole
	// pool was reaped by wall-clock expiry, the session is a Timeout.
	if n > 0 && sum.Errors == len(results) && len(results) > 0 {
		if allDeadline(results) {
			res.Status = StatusTimeout
			res.Error = "session deadline exceeded after retries"
		}
	}
}

// runFault runs a seeded fault-injection campaign over the prepared
// targets (optionally filtered to one scenario).
func (s *Server) runFault(j *job, res *SessionResult) {
	req := &j.req
	runs := req.Runs
	if runs == 0 {
		runs = 60
	}
	cfg := fault.Config{
		Seed:        req.Seed,
		Runs:        runs,
		Workers:     sessionWorkers,
		Containment: s.cfg.Containment,
		Stop:        s.drain,
	}
	if req.Scenario != "" {
		cfg.Targets = []string{req.Scenario}
	}
	rep, err := fault.Campaign(cfg, s.faultTargets, false)
	if err != nil {
		res.Status = StatusError
		res.Error = err.Error()
		res.code = http.StatusNotFound
		return
	}
	res.Retries = rep.Retries
	res.Interrupted = rep.Interrupted
	res.Outcomes = rep.Outcomes
	res.mach = rep.Metrics
	res.flights = rep.Flights
}

// runFuzz runs a seeded coverage-guided session against one prepared
// target.
func (s *Server) runFuzz(j *job, res *SessionResult) {
	req := &j.req
	t := s.fuzzTargets[req.Scenario]
	execs := req.Execs
	if execs == 0 {
		execs = 256
	}
	cfg := fuzz.Config{
		Seed:    req.Seed,
		Execs:   execs,
		Batch:   32,
		Workers: sessionWorkers,
		Targets: []string{req.Scenario},
		Stop:    s.drain,
	}
	rep, err := fuzz.Fuzz(cfg, []*fuzz.Target{t})
	if err != nil {
		res.Status = StatusError
		res.Error = err.Error()
		return
	}
	res.Interrupted = rep.Interrupted
	res.flights = rep.Flights
	res.Outcomes = make(map[string]int)
	for _, tr := range rep.Targets {
		keys := make([]string, 0, len(tr.Outcomes))
		for k := range tr.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			res.Outcomes[k] += tr.Outcomes[k]
		}
		if tr.Rediscovered {
			res.Outcome = fmt.Sprintf("rediscovered scripted attack at exec %d", tr.RediscoveredExec)
		}
	}
}

// resolveSlotErr folds a single-slot guard error into the result,
// returning true when the session is resolved.
func (s *Server) resolveSlotErr(err error, res *SessionResult) bool {
	if err == nil {
		return false
	}
	var dl *campaign.DeadlineError
	switch {
	case errors.As(err, &dl):
		res.Status = StatusTimeout
		res.Error = fmt.Sprintf("session deadline exceeded after %d retries (%v)", res.Retries, dl.Limit)
	case errors.Is(err, campaign.ErrStopped):
		res.Status = StatusError
		res.Interrupted = true
		res.Error = "drained before the session started"
	default:
		res.Status = StatusError
		res.Error = err.Error()
	}
	return true
}

// allDeadline reports whether every result's error is a deadline expiry.
func allDeadline(rs []campaign.Result) bool {
	for _, r := range rs {
		var dl *campaign.DeadlineError
		if !errors.As(r.Err, &dl) {
			return false
		}
	}
	return len(rs) > 0
}
