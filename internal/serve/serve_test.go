// Admission, containment, shedding, and drain semantics of the service
// front door, each pinned with a hermetic in-process server.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// newServer boots a serve.Server and fronts it with an httptest server.
func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	})
	return srv, hs
}

// runOnlyConfig is the cheap hermetic config: no scenario preparation,
// tight deterministic containment.
func runOnlyConfig() serve.Config {
	return serve.Config{
		Kinds: []string{"run"},
		Containment: core.Containment{
			Budget:   100_000,
			MemLimit: 1 << 20,
			Deadline: 30 * time.Second,
			Retries:  1,
		},
	}
}

// post submits one session body and decodes the response envelope.
func post(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode (%d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, m
}

func submit(t *testing.T, url string, req serve.SessionRequest) (int, serve.SessionResult) {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/sessions", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var res serve.SessionResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode (%d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, res
}

// TestAdmissionValidation pins the admission layer's refusal taxonomy:
// malformed bodies, missing/oversized images, over-quota budgets, and
// disabled kinds each map to their status code, and every refusal is
// charged to a tenant (the malformed pseudo-tenant when unknowable).
func TestAdmissionValidation(t *testing.T) {
	cfg := runOnlyConfig()
	cfg.MaxSourceBytes = 64
	_, hs := newServer(t, cfg)

	code, body := post(t, hs.URL, "{not json")
	if code != http.StatusBadRequest {
		t.Errorf("malformed body: code %d, want 400 (%v)", code, body)
	}

	code, _ = post(t, hs.URL, `{"tenant":"a","kind":"run"}`)
	if code != http.StatusBadRequest {
		t.Errorf("missing source: code %d, want 400", code)
	}

	big := strings.Repeat("# padding\n", 20) + "main: j main\n"
	code, _ = post(t, hs.URL, fmt.Sprintf(`{"tenant":"a","kind":"run","source":%q}`, big))
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized source: code %d, want 413", code)
	}

	code, _ = post(t, hs.URL, `{"tenant":"a","kind":"run","source":"main: j main\n","budget":999999999}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("over-quota budget: code %d, want 422", code)
	}

	code, _ = post(t, hs.URL, `{"tenant":"a","kind":"campaign","scenario":"exp1-stack"}`)
	if code != http.StatusBadRequest {
		t.Errorf("disabled kind: code %d, want 400", code)
	}

	// Every refusal above must be accounted: tenant "a" submitted 4 and
	// had 4 rejected; the unparseable body went to the malformed tenant.
	snap := metricsJSON(t, hs.URL)
	for _, want := range []struct {
		name string
		v    float64
	}{
		{`serve.tenant.submitted{tenant="a"}`, 4},
		{`serve.tenant.rejected{tenant="a"}`, 4},
		{`serve.tenant.submitted{tenant="_malformed"}`, 1},
		{`serve.tenant.rejected{tenant="_malformed"}`, 1},
	} {
		if got := counter(snap, want.name); got != want.v {
			t.Errorf("%s = %v, want %v", want.name, got, want.v)
		}
	}
}

// TestFaultScenarioAdmission: the fault kind prepares only the targets
// Config.Scenarios names. A fault request naming any other target is
// refused at admission with 404 and charged as rejected, never queued
// and charged as an error; a request naming none runs over the prepared
// set.
func TestFaultScenarioAdmission(t *testing.T) {
	_, hs := newServer(t, serve.Config{
		Kinds:     []string{"fault"},
		Scenarios: []string{"exp1-stack"},
	})

	for _, scenario := range []string{"bogus", "exp1-benign"} {
		code, body := post(t, hs.URL, fmt.Sprintf(`{"tenant":"f","kind":"fault","scenario":%q,"runs":4}`, scenario))
		if code != http.StatusNotFound {
			t.Errorf("fault scenario %q: code %d, want 404 (%v)", scenario, code, body)
		}
	}
	code, res := submit(t, hs.URL, serve.SessionRequest{Tenant: "f", Kind: "fault", Runs: 7, Seed: 1})
	if code != http.StatusOK || res.Status != serve.StatusOK {
		t.Fatalf("fault over the prepared set: code %d, %+v", code, res)
	}
	total := 0
	for _, n := range res.Outcomes {
		total += n
	}
	if total != 7 {
		t.Errorf("outcomes %v sum to %d, want 7", res.Outcomes, total)
	}

	snap := metricsJSON(t, hs.URL)
	for _, want := range []struct {
		name string
		v    float64
	}{
		{`serve.tenant.submitted{tenant="f"}`, 3},
		{`serve.tenant.rejected{tenant="f"}`, 2},
		{`serve.tenant.admitted{tenant="f"}`, 1},
		{`serve.tenant.errors{tenant="f"}`, 0},
	} {
		if got := counter(snap, want.name); got != want.v {
			t.Errorf("%s = %v, want %v", want.name, got, want.v)
		}
	}
}

// TestRunContainsHostileGuests: the bring-your-own-image surface must
// resolve runaway loops, memory hogs, and crashers to structured 200
// responses — containment verdicts, not server failures.
func TestRunContainsHostileGuests(t *testing.T) {
	_, hs := newServer(t, runOnlyConfig())

	cases := []struct {
		name, source, wantLabel string
	}{
		{"runaway-loop", "main: j main\n", "timeout"},
		{"memory-hog", "main: addiu $sp, $sp, -4096\n sw $zero, 0($sp)\n j main\n", "timeout"},
		{"bad-syscall", "main: addiu $v0, $zero, 99\n syscall\n", "crashed"},
		{"benign-exit", "main: addiu $v0, $zero, 1\n syscall\n", "clean"},
	}
	for _, tc := range cases {
		code, res := submit(t, hs.URL, serve.SessionRequest{
			Tenant: "hostile", Kind: "run", Source: tc.source,
		})
		if code != http.StatusOK {
			t.Errorf("%s: code %d, want 200 (%+v)", tc.name, code, res)
			continue
		}
		if res.Status != serve.StatusOK {
			t.Errorf("%s: status %q, want ok (%+v)", tc.name, res.Status, res)
		}
		if res.Outcomes[tc.wantLabel] != 1 {
			t.Errorf("%s: outcomes %v, want {%s:1}", tc.name, res.Outcomes, tc.wantLabel)
		}
	}

	snap := metricsJSON(t, hs.URL)
	if got := counter(snap, `serve.tenant.completed{tenant="hostile"}`); got != float64(len(cases)) {
		t.Errorf("completed = %v, want %d", got, len(cases))
	}
}

// TestRunDeterministic: the same hostile submission yields a byte-equal
// deterministic body (outcome, outcomes, retries) on repeat runs.
func TestRunDeterministic(t *testing.T) {
	_, hs := newServer(t, runOnlyConfig())
	req := serve.SessionRequest{Tenant: "d", Kind: "run", Source: "main: j main\n", Seed: 9}
	_, first := submit(t, hs.URL, req)
	_, second := submit(t, hs.URL, req)
	if first.Outcome != second.Outcome || first.Retries != second.Retries {
		t.Errorf("nondeterministic run result:\n%+v\n%+v", first, second)
	}
	if !strings.Contains(first.Outcome, "instruction budget") {
		t.Errorf("outcome %q should name the tripped instruction budget", first.Outcome)
	}
}

// TestShedHighWater: at the resident-memory high-water mark new work is
// shed with 503 + Retry-After while the gauge is visible at /metrics.
func TestShedHighWater(t *testing.T) {
	cfg := runOnlyConfig()
	cfg.HighWater = 1000
	cfg.MemGauge = func() uint64 { return 2000 }
	_, hs := newServer(t, cfg)

	resp, err := http.Post(hs.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"tenant":"a","kind":"run","source":"main: j main\n"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("code %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("shed response missing Retry-After")
	}
	snap := metricsJSON(t, hs.URL)
	if got := counter(snap, `serve.tenant.shed{tenant="a"}`); got != 1 {
		t.Errorf("shed = %v, want 1", got)
	}
	if got := gauge(snap, "serve.resident_bytes"); got != 2000 {
		t.Errorf("resident gauge = %v, want 2000", got)
	}
}

// holdBudget sizes a runaway run to hold a worker for about hold on this
// build and host: it times a probe run of a fixed budget through the
// server and scales the budget by the measured rate, clamped to
// [probe, limit]. The race detector slows the guest about twentyfold, so
// no fixed budget both outlasts the test's requests without it and ends
// well inside the session deadline with it.
func holdBudget(t *testing.T, url string, hold time.Duration, limit uint64) uint64 {
	t.Helper()
	const probe = 1_000_000
	start := time.Now()
	code, res := submit(t, url, serve.SessionRequest{
		Tenant: "probe", Kind: "run", Source: "main: j main\n", Budget: probe,
	})
	took := time.Since(start)
	if code != http.StatusOK || res.Outcomes["timeout"] != 1 {
		t.Fatalf("probe run: code %d, outcomes %v", code, res.Outcomes)
	}
	n := uint64(float64(probe) * hold.Seconds() / took.Seconds())
	return min(max(n, probe), limit)
}

// TestTenantCapAndQueueBackpressure: one slow tenant session holds the
// single worker; the tenant's next submission trips the per-tenant cap
// (429), and once the one-deep queue is full a third tenant gets queue
// backpressure (429 + Retry-After). All admitted work still completes,
// and the slow session ends by its step budget, not by the deadline.
func TestTenantCapAndQueueBackpressure(t *testing.T) {
	cfg := runOnlyConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.MaxPerTenant = 1
	cfg.Containment.Budget = 60_000_000 // quota for the calibrated hold below
	_, hs := newServer(t, cfg)

	// About 2 s of guest work: ample for the requests below, and a tenth
	// of the 30 s deadline, so the session ends by budget even on a host
	// several times slower than the probe measured.
	budget := holdBudget(t, hs.URL, 2*time.Second, cfg.Containment.Budget)
	slow := serve.SessionRequest{Tenant: "slow", Kind: "run", Source: "main: j main\n", Budget: budget}
	holdStart := time.Now()
	firstDone := make(chan serve.SessionResult, 1)
	go func() {
		_, res := submit(t, hs.URL, slow)
		firstDone <- res
	}()

	// Wait until the slow session occupies the worker (queue drained).
	waitFor(t, func() bool {
		snap := metricsJSON(t, hs.URL)
		return counter(snap, `serve.tenant.admitted{tenant="slow"}`) == 1 &&
			gauge(snap, "serve.queue_depth") == 0
	})

	code, _ := submit(t, hs.URL, serve.SessionRequest{
		Tenant: "slow", Kind: "run", Source: "main: j main\n", Budget: 1000,
	})
	if code != http.StatusTooManyRequests {
		t.Errorf("tenant over cap: code %d, want 429", code)
	}

	// Fill the queue from a second tenant, then a third submission must
	// bounce off the full queue.
	queuedDone := make(chan int, 1)
	go func() {
		c, _ := submit(t, hs.URL, serve.SessionRequest{
			Tenant: "fill", Kind: "run", Source: "main: j main\n", Budget: 1000,
		})
		queuedDone <- c
	}()
	waitFor(t, func() bool {
		return gauge(metricsJSON(t, hs.URL), "serve.queue_depth") == 1
	})
	code, _ = submit(t, hs.URL, serve.SessionRequest{
		Tenant: "bounced", Kind: "run", Source: "main: j main\n", Budget: 1000,
	})
	if code != http.StatusTooManyRequests {
		t.Errorf("queue full: code %d, want 429", code)
	}

	if res := <-firstDone; res.Outcomes["timeout"] != 1 {
		t.Errorf("slow session should contain to timeout, got %+v", res.Outcomes)
	}
	t.Logf("hold: budget %d instructions, %v", budget, time.Since(holdStart).Round(time.Millisecond))
	if c := <-queuedDone; c != http.StatusOK {
		t.Errorf("queued session: code %d, want 200", c)
	}
}

// TestDrainShutdown: Shutdown stops admission with 503, completes
// in-flight sessions, and flips /healthz to draining.
func TestDrainShutdown(t *testing.T) {
	cfg := runOnlyConfig()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	_, res := submit(t, hs.URL, serve.SessionRequest{
		Tenant: "a", Kind: "run", Source: "main: j main\n", Budget: 1000,
	})
	if res.Status != serve.StatusOK {
		t.Fatalf("warmup session: %+v", res)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	code, _ := submit(t, hs.URL, serve.SessionRequest{
		Tenant: "a", Kind: "run", Source: "main: j main\n", Budget: 1000,
	})
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submission: code %d, want 503", code)
	}

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if h.Status != "draining" {
		t.Errorf("healthz status %q, want draining", h.Status)
	}

	// Shutdown is idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// --- metrics helpers -------------------------------------------------

// metricsSnap mirrors metrics.Snapshot's JSON shape.
type metricsSnap struct {
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

func metricsJSON(t *testing.T, url string) metricsSnap {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m metricsSnap
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	return m
}

func counter(m metricsSnap, name string) float64 { return float64(m.Counters[name]) }
func gauge(m metricsSnap, name string) float64   { return m.Gauges[name] }

// waitFor polls cond until true or the test deadline nears.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition never held")
}
