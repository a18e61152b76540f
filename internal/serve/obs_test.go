// Observability surfaces of the service: monotonic scrapes off the live
// registry, Prometheus exposition via content negotiation, SSE event
// streaming, and the anomaly flight recorder.
package serve_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestMetricsMonotonic pins the live-registry fix: counters at /metrics
// must never move backwards between scrapes (the old bridge rebuilt a
// fresh registry per scrape, so a regression here would show up as
// resets under concurrent load).
func TestMetricsMonotonic(t *testing.T) {
	_, hs := newServer(t, runOnlyConfig())
	req := serve.SessionRequest{Tenant: "m", Kind: "run",
		Source: "main: addiu $v0, $zero, 1\n syscall\n", Budget: 1000}

	submit(t, hs.URL, req)
	first := metricsJSON(t, hs.URL)
	submit(t, hs.URL, req)
	_, third := submit(t, hs.URL, req)
	second := metricsJSON(t, hs.URL)

	if len(first.Counters) == 0 {
		t.Fatal("first scrape has no counters")
	}
	for name, v := range first.Counters {
		if second.Counters[name] < v {
			t.Errorf("counter %s went backwards: %d then %d", name, v, second.Counters[name])
		}
	}
	if got, want := second.Counters[`serve.tenant.completed{tenant="m"}`], uint64(3); got != want {
		t.Errorf("completed = %d, want %d", got, want)
	}
	// The response's tenant block reads the same registry counters, and
	// reading them creates no series for events that never happened.
	if st := third.Stats; st.Submitted != 3 || st.Admitted != 3 || st.Completed != 3 || st.Rejected != 0 {
		t.Errorf("tenant stats = %+v, want 3 submitted, admitted and completed", st)
	}
	for _, c := range []string{"rejected", "shed", "timed_out", "errors"} {
		name := `serve.tenant.` + c + `{tenant="m"}`
		if _, ok := second.Counters[name]; ok {
			t.Errorf("/metrics has %s, but no such event happened", name)
		}
	}
	// A settled run session's machine metrics are absorbed with tenant and
	// kind labels — the fleet view of the blind tiers.
	if second.Counters[`cpu.instructions{kind="run",tenant="m"}`] == 0 {
		t.Errorf("machine metrics not absorbed: no labeled cpu.instructions counter")
	}
}

// TestMetricsPrometheus: an Accept header naming text/plain switches
// /metrics to the Prometheus text exposition, and every sample line
// parses as `name{labels} value`.
func TestMetricsPrometheus(t *testing.T) {
	_, hs := newServer(t, runOnlyConfig())
	submit(t, hs.URL, serve.SessionRequest{Tenant: "p", Kind: "run",
		Source: "main: addiu $v0, $zero, 1\n syscall\n", Budget: 1000})

	req, _ := http.NewRequest("GET", hs.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}

	var sawType, sawTenant, sawSpanBucket bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			sawType = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Every sample is "name value" or `name{labels} value`.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = name[:i]
		}
		if strings.ContainsAny(name, ".-") {
			t.Errorf("unsanitized metric name %q", name)
		}
		if strings.HasPrefix(line, `serve_tenant_submitted{tenant="p"}`) {
			sawTenant = true
		}
		if strings.HasPrefix(line, `serve_span_seconds_bucket{span="run",`) {
			sawSpanBucket = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !sawType {
		t.Error("no # TYPE headers in exposition")
	}
	if !sawTenant {
		t.Error("labeled tenant counter missing from exposition")
	}
	if !sawSpanBucket {
		t.Error("span latency histogram missing from exposition")
	}
}

// TestSessionEventsSSE: after a run session completes, its guest events
// replay over GET /v1/sessions/{id}/events as SSE data lines ending in a
// done marker; unknown sessions 404.
func TestSessionEventsSSE(t *testing.T) {
	_, hs := newServer(t, runOnlyConfig())
	code, res := submit(t, hs.URL, serve.SessionRequest{Tenant: "sse", Kind: "run",
		Source: "main: addiu $v0, $zero, 1\n syscall\n", Budget: 1000})
	if code != http.StatusOK {
		t.Fatalf("session: code %d", code)
	}

	resp, err := http.Get(hs.URL + "/v1/sessions/" + itoa(res.ID) + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q, want text/event-stream", ct)
	}
	var events, done int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		payload := strings.TrimPrefix(line, "data: ")
		var m map[string]any
		if err := json.Unmarshal([]byte(payload), &m); err != nil {
			t.Fatalf("non-JSON SSE payload %q: %v", payload, err)
		}
		if m["done"] == true {
			done++
			continue
		}
		events++
	}
	if events == 0 {
		t.Error("no guest events replayed (the syscall should have emitted one)")
	}
	if done != 1 {
		t.Errorf("saw %d done markers, want 1", done)
	}

	resp2, err := http.Get(hs.URL + "/v1/sessions/999999/events")
	if err != nil {
		t.Fatalf("GET unknown: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: code %d, want 404", resp2.StatusCode)
	}
}

// TestObsSmokeFlightRecorder: the flight recorder dumps exactly one
// artifact for an injected Timeout (a runaway guest contained by its
// step budget) and none for a benign run, and the artifact's span tree
// has the service's deterministic shape.
func TestObsSmokeFlightRecorder(t *testing.T) {
	cfg := runOnlyConfig()
	dir := t.TempDir()
	cfg.FlightDir = dir
	_, hs := newServer(t, cfg)

	// Benign first: no artifact.
	submit(t, hs.URL, serve.SessionRequest{Tenant: "ok", Kind: "run",
		Source: "main: addiu $v0, $zero, 1\n syscall\n", Budget: 1000, Seed: 3})
	if got := flightFiles(t, dir); len(got) != 0 {
		t.Fatalf("benign session left artifacts: %v", got)
	}

	// Injected Timeout: the runaway loop trips the deterministic budget.
	code, res := submit(t, hs.URL, serve.SessionRequest{Tenant: "anom", Kind: "run",
		Source: "main: j main\n", Budget: 5000, Seed: 3})
	if code != http.StatusOK || res.Outcomes["timeout"] != 1 {
		t.Fatalf("runaway session: code %d outcomes %v", code, res.Outcomes)
	}
	files := flightFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("timeout session wrote %d artifacts, want exactly 1: %v", len(files), files)
	}
	if base := filepath.Base(files[0]); base != "run-Timeout.jsonl" {
		t.Errorf("artifact named %s, want run-Timeout.jsonl", base)
	}

	// The artifact: a flight header, then span entries covering the
	// service pipeline in order, then request and outcome entries.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var header struct {
		Class string `json:"class"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("header: %v", err)
	}
	if header.Class != "Timeout" {
		t.Errorf("flight class %q, want Timeout", header.Class)
	}
	var spanOrder []string
	var sawRequest, sawOutcome bool
	for _, ln := range lines[1:] {
		var e struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("entry %q: %v", ln, err)
		}
		switch e.Kind {
		case "span":
			spanOrder = append(spanOrder, e.Name)
		case "request":
			sawRequest = true
		case "outcome":
			sawOutcome = true
		}
	}
	want := []string{"admit", "build", "boot", "guest-run", "classify", "run", "settle"}
	// The queue span ends between admit and run; its position relative to
	// admit is fixed but build/boot nest inside run, so assert the full
	// end-order with queue where the worker ends it.
	wantWithQueue := []string{"admit", "queue", "build", "boot", "guest-run", "classify", "run", "settle"}
	if !equalStrings(spanOrder, wantWithQueue) && !equalStrings(spanOrder, want) {
		t.Errorf("span end-order %v, want %v", spanOrder, wantWithQueue)
	}
	if !sawRequest || !sawOutcome {
		t.Errorf("flight missing request/outcome entries (request=%v outcome=%v)", sawRequest, sawOutcome)
	}
}

// flightFiles lists every .jsonl artifact under the flight dir.
func flightFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(p, ".jsonl") {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func itoa(v uint64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(b[i:])
		}
	}
}
