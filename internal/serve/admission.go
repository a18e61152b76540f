package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// MalformedTenant is the pseudo-tenant charged for requests whose body
// could not be parsed far enough to name a tenant — so even garbage
// submissions are accounted for in the per-tenant metrics.
const MalformedTenant = "_malformed"

// tenantState is one tenant's live book-keeping under Server.mu. Its
// event counts (submitted, admitted, rejected, shed, completed, retried,
// timed_out, errors) live only in the registry, bumped under Server.mu
// too, so a TenantStats read under that lock is one consistent point.
type tenantState struct {
	active int // queued + running right now
}

// TenantStats is the embedded per-tenant observability block: a snapshot
// of the tenant's counters at response time. Point-in-time, not part of
// the deterministic session body.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Submitted uint64 `json:"submitted"`
	Admitted  uint64 `json:"admitted"`
	Rejected  uint64 `json:"rejected"`
	Shed      uint64 `json:"shed"`
	Completed uint64 `json:"completed"`
	Retried   uint64 `json:"retried"`
	TimedOut  uint64 `json:"timed_out"`
	Errors    uint64 `json:"errors"`
	Active    int    `json:"active"`
}

// tenantCounter names one tenant's labeled registry counter.
func tenantCounter(tenant, counter string) string {
	return metrics.Labeled("serve.tenant."+counter, "tenant", tenant)
}

// bump counts one tenant event into the live registry as a labeled
// counter, which keeps /metrics scrapes monotonic without rebuilding
// anything per scrape. Callers hold Server.mu (lock order is mu before
// regMu).
func (s *Server) bump(tenant, counter string, n uint64) {
	s.regMu.Lock()
	s.reg.Counter(tenantCounter(tenant, counter)).Add(n)
	s.regMu.Unlock()
}

// tenantStats reads the tenant's counters back from the registry without
// creating the ones never bumped, so the read adds no series to
// /metrics. Callers hold Server.mu.
func (s *Server) tenantStats(tenant string, active int) TenantStats {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	n := func(counter string) uint64 { return s.reg.CounterValue(tenantCounter(tenant, counter)) }
	return TenantStats{
		Tenant: tenant, Submitted: n("submitted"), Admitted: n("admitted"),
		Rejected: n("rejected"), Shed: n("shed"), Completed: n("completed"),
		Retried: n("retried"), TimedOut: n("timed_out"), Errors: n("errors"),
		Active: active,
	}
}

// admitError is a structured admission refusal: an HTTP status plus the
// counter it charges.
type admitError struct {
	code   int
	shed   bool // charged to shed (backpressure/degradation) vs rejected
	reason string
}

func (e *admitError) Error() string { return e.reason }

// handleSession is the front door: parse, validate, admit, enqueue, wait.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req SessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		// The body never parsed, so the tenant is unknowable; charge the
		// malformed pseudo-tenant so the session is still accounted for.
		s.mu.Lock()
		s.tenant(MalformedTenant) // every tenant seen gets an active gauge
		s.bump(MalformedTenant, "submitted", 1)
		s.bump(MalformedTenant, "rejected", 1)
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = MalformedTenant
	}

	// The session's span tracer and flight recorder are seeded from the
	// request, so their deterministic identity (IDs, sequence, entries) is
	// a pure function of the submission — only durations vary.
	tr := obs.NewTracer(uint64(req.Seed))
	tr.Observe = s.observeSpan
	adm := tr.Start(nil, "admit")
	j, aerr := s.admit(tenant, &req, tr, adm)
	adm.End() // no-op when admit already ended it
	if aerr != nil {
		if aerr.code == http.StatusTooManyRequests || aerr.code == http.StatusServiceUnavailable {
			retryAfter(w)
		}
		writeError(w, aerr.code, aerr.reason)
		return
	}

	// Synchronous contract: the scheduler always delivers exactly one
	// result on done (the channel is buffered, so a vanished client never
	// wedges a worker).
	res := <-j.done
	writeResult(w, res)
}

// admit applies the admission pipeline under one lock acquisition:
// validation, quotas, drain, shedding, per-tenant cap, queue
// backpressure. On success the session is queued and charged admitted.
func (s *Server) admit(tenant string, req *SessionRequest, tr *obs.Tracer, adm *obs.Span) (*job, *admitError) {
	verr := s.validate(req)

	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenant(tenant)
	s.bump(tenant, "submitted", 1)

	if verr != nil {
		s.bump(tenant, "rejected", 1)
		return nil, verr
	}
	if s.draining {
		s.bump(tenant, "shed", 1)
		return nil, &admitError{code: http.StatusServiceUnavailable, shed: true,
			reason: "draining: not admitting new sessions"}
	}
	if gauge := s.cfg.MemGauge(); gauge >= s.cfg.HighWater {
		s.bump(tenant, "shed", 1)
		return nil, &admitError{code: http.StatusServiceUnavailable, shed: true,
			reason: fmt.Sprintf("shedding load: resident memory %d >= high water %d", gauge, s.cfg.HighWater)}
	}
	if t.active >= s.cfg.MaxPerTenant {
		s.bump(tenant, "rejected", 1)
		return nil, &admitError{code: http.StatusTooManyRequests,
			reason: fmt.Sprintf("tenant %q at concurrent-session cap (%d)", tenant, s.cfg.MaxPerTenant)}
	}

	s.nextID++
	j := &job{id: s.nextID, tenant: tenant, req: *req, done: make(chan *SessionResult, 1),
		tr: tr, rec: obs.NewRecorder(0)}
	// The queue span and event stream must exist before the job is visible
	// to a worker; on a full queue both are discarded (the span is simply
	// never ended, so it records nothing).
	j.queued = tr.Start(nil, "queue")
	s.hub.open(j.id)
	// Admission is over once the job is visible to a worker: end its span
	// first, so "admit" always ends before "queue".
	adm.End()
	select {
	case s.queue <- j:
		t.active++
		s.queueLen++
		s.inflight.Add(1)
		s.bump(tenant, "admitted", 1)
		return j, nil
	default:
		s.hub.discard(j.id)
		s.bump(tenant, "rejected", 1)
		return nil, &admitError{code: http.StatusTooManyRequests,
			reason: fmt.Sprintf("queue full (%d deep): backpressure", s.cfg.QueueDepth)}
	}
}

// validate applies the request-shape and quota checks that need no
// server state. It returns the refusal to charge, or nil.
func (s *Server) validate(req *SessionRequest) *admitError {
	if req.Kind == "" {
		req.Kind = KindCampaign
	}
	if !s.kinds[req.Kind] {
		return &admitError{code: http.StatusBadRequest,
			reason: fmt.Sprintf("unknown or disabled kind %q", req.Kind)}
	}
	switch req.Kind {
	case KindRun:
		if req.Source == "" {
			return &admitError{code: http.StatusBadRequest, reason: "run: missing source"}
		}
		if len(req.Source) > s.cfg.MaxSourceBytes {
			return &admitError{code: http.StatusRequestEntityTooLarge,
				reason: fmt.Sprintf("source %d bytes over image quota %d", len(req.Source), s.cfg.MaxSourceBytes)}
		}
	case KindCampaign:
		if _, ok := s.snaps[req.Scenario]; !ok {
			return &admitError{code: http.StatusNotFound,
				reason: fmt.Sprintf("unknown scenario %q", req.Scenario)}
		}
		if req.Sessions < 0 || req.Sessions > maxSessions {
			return &admitError{code: http.StatusUnprocessableEntity,
				reason: fmt.Sprintf("sessions %d over quota %d", req.Sessions, maxSessions)}
		}
	case KindFault:
		if req.Scenario != "" && !slices.ContainsFunc(s.faultTargets,
			func(t *fault.Target) bool { return t.Name == req.Scenario }) {
			return &admitError{code: http.StatusNotFound,
				reason: fmt.Sprintf("unknown fault target %q", req.Scenario)}
		}
		if req.Runs < 0 || req.Runs > maxRuns {
			return &admitError{code: http.StatusUnprocessableEntity,
				reason: fmt.Sprintf("runs %d over quota %d", req.Runs, maxRuns)}
		}
	case KindFuzz:
		if _, ok := s.fuzzTargets[req.Scenario]; !ok {
			return &admitError{code: http.StatusNotFound,
				reason: fmt.Sprintf("unknown fuzz target %q", req.Scenario)}
		}
		if req.Execs < 0 || req.Execs > maxExecs {
			return &admitError{code: http.StatusUnprocessableEntity,
				reason: fmt.Sprintf("execs %d over quota %d", req.Execs, maxExecs)}
		}
	}
	if req.Budget > s.cfg.Containment.Budget {
		return &admitError{code: http.StatusUnprocessableEntity,
			reason: fmt.Sprintf("step budget %d over quota %d", req.Budget, s.cfg.Containment.Budget)}
	}
	return nil
}

// settle charges a resolved session to its tenant's outcome counters.
func (s *Server) settle(tenant string, res *SessionResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenant(tenant)
	t.active--
	s.bump(tenant, "completed", 1)
	s.bump(tenant, "retried", uint64(res.Retries))
	switch res.Status {
	case StatusTimeout:
		s.bump(tenant, "timed_out", 1)
	case StatusError:
		s.bump(tenant, "errors", 1)
	}
	res.Stats = s.tenantStats(tenant, t.active)
}

// tenant returns (creating on first touch) the tenant's state. Callers
// hold s.mu.
func (s *Server) tenant(name string) *tenantState {
	t := s.tenants[name]
	if t == nil {
		t = &tenantState{}
		s.tenants[name] = t
	}
	return t
}

// writeError emits the uniform JSON error envelope.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// writeResult emits a terminal session result with its HTTP status.
func writeResult(w http.ResponseWriter, res *SessionResult) {
	w.Header().Set("Content-Type", "application/json")
	code := res.code
	if code == 0 {
		code = http.StatusOK
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(res)
}
