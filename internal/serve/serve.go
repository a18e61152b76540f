// Package serve is the hardened multi-tenant front door to the
// pointer-taintedness engines: a long-running HTTP+JSON service where
// tenants submit guest images and input streams and receive
// campaign/fault/fuzz results. It is designed around failure — every
// guest is assumed hostile until contained:
//
//   - Admission control: per-tenant concurrent-session caps, a bounded
//     queue with 429 + Retry-After backpressure, and image-size /
//     step-budget / run-count quotas, all riding the machine's own
//     deterministic containment (cpu.StepBudgetError, mem.LimitError)
//     plus the campaign pool guard's wall-clock deadlines.
//   - A sharded scheduler: worker goroutines pull admitted sessions from
//     the queue and fan each one over a per-session pool whose machines
//     are forked copy-on-write from snapshots prepared once at startup.
//     A wedged, crashing, or panicking guest yields a structured
//     per-session error — never a dead server.
//   - Graceful degradation: when the resident-memory gauge crosses the
//     high-water mark new work is shed (503 + Retry-After) while
//     in-flight sessions finish; Shutdown drains the same way and closes
//     the pool guard's Stop channel so interrupted campaigns flush
//     partial results.
//   - Per-tenant observability: admitted/rejected/shed/retried/timed-out
//     counters and queue-depth / resident-memory gauges, exposed at
//     /metrics and embedded in every session response.
//
// Sessions are deterministic: the result body (outcomes, fingerprints,
// retries) is a pure function of the request and its seed, independent
// of scheduling, load, or worker count.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fuzz"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/taint"
)

// Fixed per-request limits.
const (
	// sessionWorkers is the fan-out width inside one campaign, fault or
	// fuzz session. Results are identical at any width; this only bounds
	// how much host CPU one tenant session can grab.
	sessionWorkers = 2
	// maxBodyBytes caps one request body.
	maxBodyBytes = 1 << 20
	// maxSessions, maxRuns and maxExecs cap one request's campaign width,
	// fault-run count and fuzz exec budget.
	maxSessions = 64
	maxRuns     = 600
	maxExecs    = 2000
)

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// Workers is the scheduler shard count — goroutines pulling admitted
	// sessions off the queue (default GOMAXPROCS, min 1).
	Workers int
	// QueueDepth bounds the admission queue (default 64). A full queue is
	// backpressure: 429 + Retry-After, never an unbounded buffer.
	QueueDepth int
	// MaxPerTenant caps one tenant's queued+running sessions (default 4).
	MaxPerTenant int
	// MaxSourceBytes is the image-size quota for submitted guest source
	// (default 256 KiB); larger submissions are rejected with 413.
	MaxSourceBytes int
	// Containment is the shared guest-containment envelope (zero value:
	// core.DefaultContainment). Its Budget also bounds what a tenant may
	// request: asking for more is rejected at admission.
	Containment core.Containment
	// HighWater is the resident-memory shed threshold in bytes (default
	// 1 GiB): at or above it, new sessions get 503 while in-flight work
	// finishes.
	HighWater uint64
	// MemGauge reads the resident-memory gauge (default: Go heap in use).
	// Tests override it to force shedding deterministically.
	MemGauge func() uint64
	// Scenarios names the attack scenarios, fuzz targets and fault
	// targets to prepare (default all).
	Scenarios []string
	// Kinds enables engines: "run", "campaign", "fault", "fuzz" (default
	// all four).
	Kinds []string
	// FlightDir, when set, is where anomalous sessions dump their
	// flight-recorder JSONL artifacts (one subdirectory per session).
	// Empty keeps the recorder in memory only.
	FlightDir string
	// Pprof mounts net/http/pprof under /debug/pprof — off by default,
	// since the profile endpoints expose host internals to any tenant
	// that can reach the listener.
	Pprof bool
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxPerTenant <= 0 {
		c.MaxPerTenant = 4
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 256 << 10
	}
	if c.Containment == (core.Containment{}) {
		c.Containment = core.DefaultContainment()
	}
	if c.HighWater == 0 {
		c.HighWater = 1 << 30
	}
	if c.MemGauge == nil {
		c.MemGauge = heapInUse
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []string{"run", "campaign", "fault", "fuzz"}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// heapInUse is the default resident-memory gauge: bytes of live Go heap,
// which is where guest pages (the dominant allocation) live.
func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// snapEntry is one prepared scenario: its steady-state snapshot plus the
// session script every campaign fork replays.
type snapEntry struct {
	scenario attack.Scenario
	snap     *attack.Snapshot
}

// spanBuckets are the serve.span_seconds histogram bounds: sub-millisecond
// admission spans up through multi-second campaign runs.
var spanBuckets = []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// Server is the service: an http.Handler plus the scheduler behind it.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	kinds map[string]bool

	// reg is the one live service registry and the only store of the
	// tenant event counters; they and the span histograms are counted
	// into it as they change, so consecutive scrapes are monotonic —
	// nothing is rebuilt per scrape.
	// machSnap accumulates per-session machine metrics (relabeled by
	// tenant and kind) as sessions settle. Both under regMu; the lock
	// order is mu before regMu, never the reverse.
	reg      *metrics.Registry
	machSnap metrics.Snapshot
	regMu    sync.Mutex

	// hub fans guest events out to SSE subscribers per session.
	hub *eventHub

	// Prepared once before serving, under the default boot options.
	snaps        map[string]*snapEntry
	faultTargets []*fault.Target
	fuzzTargets  map[string]*fuzz.Target

	queue    chan *job
	workers  sync.WaitGroup // scheduler goroutines
	inflight sync.WaitGroup // admitted sessions not yet resolved
	drain    chan struct{}  // closed by Shutdown; pool guard Stop channel

	mu       sync.Mutex
	tenants  map[string]*tenantState
	queueLen int
	draining bool
	nextID   uint64
}

// job is one admitted session waiting for a scheduler shard.
type job struct {
	id     uint64
	tenant string
	req    SessionRequest
	done   chan *SessionResult // buffered(1); the worker always delivers

	// tr/rec are the session's span tracer and flight recorder, seeded
	// from the request so their deterministic identity is independent of
	// scheduling. queued is the in-flight queue-wait span: started at
	// admission, ended when a shard dequeues the job.
	tr     *obs.Tracer
	rec    *obs.Recorder
	queued *obs.Span
}

// New prepares every enabled engine's targets (boots + snapshots, done
// eagerly so no scenario boot ever races a running campaign) and starts
// the scheduler shards. The returned Server serves until Shutdown.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		kinds:       make(map[string]bool, len(cfg.Kinds)),
		snaps:       make(map[string]*snapEntry),
		fuzzTargets: make(map[string]*fuzz.Target),
		queue:       make(chan *job, cfg.QueueDepth),
		drain:       make(chan struct{}),
		tenants:     make(map[string]*tenantState),
		reg:         metrics.New(),
		hub:         newEventHub(),
	}
	for _, k := range cfg.Kinds {
		s.kinds[k] = true
	}

	if s.kinds["campaign"] {
		want := make(map[string]bool, len(cfg.Scenarios))
		for _, n := range cfg.Scenarios {
			want[n] = true
		}
		for _, sc := range attack.Scenarios() {
			if len(want) > 0 && !want[sc.Name] {
				continue
			}
			m, err := sc.Prepare(taint.PolicyPointerTaintedness)
			if err != nil {
				return nil, fmt.Errorf("prepare %s: %w", sc.Name, err)
			}
			snap, err := m.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("snapshot %s: %w", sc.Name, err)
			}
			s.snaps[sc.Name] = &snapEntry{scenario: sc, snap: snap}
		}
	}
	if s.kinds["fault"] {
		targets, err := fault.PrepareTargets(fault.Config{Targets: cfg.Scenarios}, nil)
		if err != nil {
			return nil, fmt.Errorf("prepare fault targets: %w", err)
		}
		s.faultTargets = targets
	}
	if s.kinds["fuzz"] {
		targets, err := fuzz.PrepareTargets(fuzz.Config{Targets: cfg.Scenarios})
		if err != nil {
			return nil, fmt.Errorf("prepare fuzz targets: %w", err)
		}
		for _, t := range targets {
			s.fuzzTargets[t.Scenario.Name] = t
		}
	}

	s.mux.HandleFunc("POST /v1/sessions", s.handleSession)
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	for w := 0; w < cfg.Workers; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	s.cfg.Logf("serve: %d shards, queue %d, %d scenarios prepared",
		cfg.Workers, cfg.QueueDepth, len(s.snaps))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: admission stops (503), the pool guard's
// Stop channel closes so in-flight campaigns flush partial results, and
// the call waits for every admitted session to resolve (or ctx to end).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.drain)
		// Admission enqueues only under mu while !draining, so no producer
		// can race this close.
		close(s.queue)
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cfg.Logf("serve: drained")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("shutdown: %w", ctx.Err())
	}
}

// worker is one scheduler shard: it pulls admitted sessions and runs each
// behind panic isolation, so a corrupted fork or a hostile guest that
// defeats an engine's own recovery still resolves to a structured error.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.queueLen--
		s.mu.Unlock()
		j.queued.End()
		run := j.tr.Start(nil, "run")
		res := s.runIsolated(j)
		run.End()
		st := j.tr.Start(nil, "settle")
		s.settle(j.tenant, res)
		st.End()
		s.absorb(j.tenant, j.req.Kind, res)
		s.finishFlight(j, res)
		s.hub.complete(j.id)
		j.done <- res
		s.inflight.Done()
	}
}

// observeSpan is the tracer's bridge into the live registry: every
// completed span lands in a per-span-name latency histogram, which is
// where queue-wait latency becomes scrapeable.
func (s *Server) observeSpan(name string, durNs float64) {
	s.regMu.Lock()
	s.reg.Histogram(metrics.Labeled("serve.span_seconds", "span", name), spanBuckets).
		Observe(durNs / 1e9)
	s.regMu.Unlock()
}

// absorb folds one settled session's machine-metrics snapshot into the
// fleet aggregate, scoped by tenant and engine kind — this is what makes
// superblock deopt reasons, COW fault rates, and taint-alert counters
// visible per tenant at /metrics.
func (s *Server) absorb(tenant, kind string, res *SessionResult) {
	m := res.mach
	if len(m.Counters) == 0 && len(m.Gauges) == 0 && len(m.Histograms) == 0 {
		return
	}
	scoped := m.Relabel("tenant", tenant, "kind", kind)
	s.regMu.Lock()
	s.machSnap = s.machSnap.Merge(scoped)
	s.regMu.Unlock()
}

// sessionAnomaly maps a settled result to its anomaly class, or "" for a
// benign session. Run-kind verdict labels map onto the fault taxonomy;
// fault/fuzz outcome maps already speak it, and any anomalous run inside
// those campaigns flags the whole session (its per-run flight records
// ride along as artifacts).
func sessionAnomaly(res *SessionResult) string {
	if res.Status == StatusTimeout {
		return "Timeout"
	}
	switch {
	case res.Outcomes["crashed"] > 0:
		return "GuestCrash"
	case res.Outcomes["timeout"] > 0:
		return "Timeout"
	case res.Outcomes["compromised"] > 0:
		return "SilentTaintLoss"
	}
	for _, c := range []string{"GuestCrash", "Timeout", "SilentTaintLoss", "SpuriousAlert"} {
		if res.Outcomes[c] > 0 {
			return c
		}
	}
	return ""
}

// finishFlight folds the session's spans and verdict into its flight
// recorder, then — only for anomalous sessions — counts the flight and
// dumps the JSONL artifacts under FlightDir/session-<id>/. The session id
// appears only in the directory name, never inside the record, so the
// artifact body stays a pure function of the request and seed.
func (s *Server) finishFlight(j *job, res *SessionResult) {
	rec := j.rec
	if rec == nil {
		return
	}
	rec.AddSpans(j.tr.Records())
	reqAttrs := map[string]string{
		"tenant": j.tenant,
		"kind":   j.req.Kind,
		"seed":   fmt.Sprintf("%d", j.req.Seed),
	}
	if j.req.Scenario != "" {
		reqAttrs["scenario"] = j.req.Scenario
	}
	rec.Note("request", j.req.Kind, reqAttrs, nil)
	outAttrs := map[string]string{"status": res.Status}
	if res.Outcome != "" {
		outAttrs["outcome"] = res.Outcome
	}
	if res.Error != "" {
		outAttrs["error"] = res.Error
	}
	class := sessionAnomaly(res)
	rec.Note("outcome", class, outAttrs, nil)
	if class == "" {
		return
	}
	s.regMu.Lock()
	s.reg.Counter(metrics.Labeled("serve.flights", "class", class, "tenant", j.tenant)).Inc()
	s.regMu.Unlock()
	if s.cfg.FlightDir == "" {
		return
	}
	dir := filepath.Join(s.cfg.FlightDir, fmt.Sprintf("session-%06d", j.id))
	flight := rec.Capture(fmt.Sprintf("%s-%s", j.req.Kind, class), class,
		map[string]string{"tenant": j.tenant, "kind": j.req.Kind})
	if p, err := flight.WriteFile(dir); err != nil {
		s.cfg.Logf("serve: flight write: %v", err)
	} else {
		s.cfg.Logf("serve: anomaly flight %s", p)
	}
	for _, sub := range res.flights {
		if _, err := sub.WriteFile(dir); err != nil {
			s.cfg.Logf("serve: sub-flight write: %v", err)
		}
	}
}

// runIsolated runs one session, converting any escaped panic into a
// structured error result.
func (s *Server) runIsolated(j *job) (res *SessionResult) {
	defer func() {
		if p := recover(); p != nil {
			res = &SessionResult{
				ID: j.id, Tenant: j.tenant, Kind: j.req.Kind,
				Status: StatusError, Error: fmt.Sprintf("session panicked: %v", p),
				code: http.StatusOK,
			}
		}
	}()
	return s.runSession(j)
}

// guardOpts is the one pool-guard policy every session kind shares,
// derived from the containment envelope: wall deadline with retries (host
// contention is transient; guest wedges are already contained by the
// deterministic step budget), seeded backoff, and the server drain.
func (s *Server) guardOpts(seed int64) campaign.GuardOpts {
	ct := s.cfg.Containment
	return campaign.GuardOpts{
		Deadline:      ct.Deadline,
		RetryDeadline: true,
		Retries:       ct.Retries,
		Backoff:       ct.Backoff,
		BackoffMax:    ct.BackoffMax,
		Seed:          seed,
		Stop:          s.drain,
	}
}

// handleMetrics renders the service registry. Content negotiation: an
// Accept header naming text/plain or OpenMetrics selects the Prometheus
// text exposition; everything else (including no Accept) keeps the JSON
// body existing clients parse.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metricsSnapshot()
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snap.WritePrometheus(w); err != nil {
			s.cfg.Logf("serve: metrics write: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := snap.WriteJSON(w); err != nil {
		s.cfg.Logf("serve: metrics write: %v", err)
	}
}

// handleHealth reports liveness and the drain state.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	depth := s.queueLen
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":%q,\"queue_depth\":%d,\"resident_bytes\":%d}\n",
		status, depth, s.cfg.MemGauge())
}

// metricsSnapshot renders the scrape view: the live registry (tenant
// counters, span histograms, flight counts — counted incrementally, so
// consecutive scrapes are monotonic), the accumulated per-session machine
// metrics, and a point-in-time overlay of gauges plus the process-wide
// static-fact cache (whose counters are cumulative at their source, so
// re-reading them per scrape stays monotonic too).
func (s *Server) metricsSnapshot() metrics.Snapshot {
	s.mu.Lock()
	depth := s.queueLen
	draining := 0.0
	if s.draining {
		draining = 1
	}
	actives := make(map[string]int, len(s.tenants))
	for name, t := range s.tenants {
		actives[name] = t.active
	}
	s.mu.Unlock()

	point := metrics.New()
	for name, a := range actives {
		point.Gauge(metrics.Labeled("serve.tenant.active", "tenant", name)).Set(float64(a))
	}
	point.Gauge("serve.queue_depth").Set(float64(depth))
	point.Gauge("serve.draining").Set(draining)
	point.Gauge("serve.resident_bytes").Set(float64(s.cfg.MemGauge()))
	point.Gauge("serve.high_water_bytes").Set(float64(s.cfg.HighWater))
	core.FillStaticCacheMetrics(point)

	s.regMu.Lock()
	live := s.reg.Snapshot()
	mach := s.machSnap
	s.regMu.Unlock()
	return live.Merge(mach).Merge(point.Snapshot())
}

// retryAfter stamps backpressure responses. One second is deliberate: the
// queue turns over in well under that on any host that keeps up at all.
func retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
}
