package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/taint"
)

// serve-mixed runs ptserve in process (serve.New behind a real loopback
// TCP listener) and drives it open loop: seeded Poisson arrivals at
// serveRate requests per second over at most two connections, timed from
// each request's scheduled send. The mix is 40% campaign (wu-ftpd or exp1,
// four sessions each), 50% run (a seeded tenant assembly guest that reads
// stdin, with distinct source every time) and 10% run of a runaway guest
// under a tight step budget. It is the only workload that reaches
// admission, the queue, the assembler, booting a fresh tenant image (a
// static-analysis cache miss), JSON encoding and the metrics registry.
// The fault and fuzz kinds stay out: an injected memory hog pushes the
// heap gauge toward the shed threshold and makes shedding timing-
// dependent.

const (
	serveRate        = 400 // requests per second
	serveSessions    = 4   // sessions per campaign request
	runawayBudget    = 50_000
	traceHeader      = "X-Ptbench-Op"
	sampleEvery      = 250 * time.Millisecond
	serveTenants     = 4
	serveCampaignExp = "exp1-stack"
	serveCampaignFTP = "wuftpd-site-exec"
)

// Request kinds of the mix.
const (
	reqCampaignFTP = iota
	reqCampaignExp
	reqRun
	reqRunaway
)

type request struct {
	due  time.Duration // offset of the scheduled send from the window start
	kind int
	body []byte
}

// scenarioRef is what a correct campaign session of one scenario looks
// like, from a snapshot prepared in this process.
type scenarioRef struct {
	fingerprint string
	base        metrics.Snapshot // counters of a fresh fork
}

type serveBench struct {
	seed    int64
	calls   int // run and trace calls so far; each gets its own seed stream
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	clients []*http.Client // one connection each, the load's
	scraper *http.Client   // a third connection, for GET /metrics
	refs    map[string]scenarioRef

	// For traced request i, ops[i] is its client op span and handlerNs[i]
	// the server handler's time; the handler reads them on a server
	// goroutine, hence atomics.
	ops       []atomic.Pointer[tracedOp]
	handlerNs []atomic.Int64

	completed atomic.Int64 // correct responses so far
}

func setupServe(seed int64) (bench, error) {
	srv, err := serve.New(serve.Config{
		Kinds:     []string{serve.KindRun, serve.KindCampaign},
		Scenarios: []string{serveCampaignExp, serveCampaignFTP},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // nothing was admitted
		return nil, err
	}
	b := &serveBench{seed: seed, srv: srv, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(), refs: make(map[string]scenarioRef)}
	b.hs = &http.Server{Handler: b}
	go func() { b.served <- b.hs.Serve(ln) }()
	for i := 0; i <= workers; i++ {
		b.clients = append(b.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	b.clients, b.scraper = b.clients[:workers], b.clients[workers]
	for i, c := range b.clients {
		resp, err := c.Get(b.url + "/healthz")
		if err != nil {
			b.close()
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.close()
			return nil, fmt.Errorf("healthz on connection %d: %s", i, resp.Status)
		}
	}
	return b, nil
}

// reference prepares, once, this process's own snapshot of each campaign
// scenario and runs one session on it: what every served session must
// fingerprint as, and the counter state it starts from.
func (b *serveBench) reference() error {
	if len(b.refs) > 0 {
		return nil
	}
	for _, name := range []string{serveCampaignExp, serveCampaignFTP} {
		sc, _ := attack.ScenarioByName(name)
		m, err := sc.Prepare(taint.PolicyPointerTaintedness)
		if err != nil {
			return err
		}
		snap, err := m.Snapshot()
		if err != nil {
			return err
		}
		f := snap.Fork()
		out, err := sc.Session(f)
		b.refs[name] = scenarioRef{
			fingerprint: campaign.SessionFingerprint(campaign.Result{Outcome: out, Stats: f.CPU.Stats(), Err: err}),
			base:        snap.Fork().Metrics(),
		}
	}
	return nil
}

// ServeHTTP is the listener's handler: ptserve itself, timed as a
// serve.handler span under the client's op span for requests that carry
// the trace header.
func (b *serveBench) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.Header.Get(traceHeader))
	if err != nil || i < 0 || i >= len(b.ops) {
		b.srv.ServeHTTP(w, r)
		return
	}
	op := b.ops[i].Load()
	sp := op.tr.Start(op.span, "serve.handler")
	b.srv.ServeHTTP(w, r)
	b.handlerNs[i].Store(int64(sp.End()))
}

// tracedOp is one traced request's client-side op span; the handler
// parents its span to it.
type tracedOp struct {
	tr   *obs.Tracer
	span *obs.Span
}

// guestSource is a seeded tenant guest: it reads up to 64 bytes of stdin
// and folds them into a hash for a seeded number of rounds, then exits 0.
// Constants and the tag make every source, and so every image, distinct.
func guestSource(rng *rand.Rand, tag int) string {
	return fmt.Sprintf(`# tenant guest %d
	.data
buf:	.space 64
	.text
main:
	li $v0, 3
	li $a0, 0
	la $a1, buf
	li $a2, 64
	syscall
	move $t9, $v0
	li $t0, %d
	li $t1, %d
outer:
	la $t2, buf
	move $t3, $t9
inner:
	beq $t3, $zero, next
	lbu $t4, 0($t2)
	addu $t0, $t0, $t4
	sll $t5, $t0, %d
	xor $t0, $t0, $t5
	addiu $t2, $t2, 1
	addiu $t3, $t3, -1
	j inner
next:
	addiu $t1, $t1, -1
	bne $t1, $zero, outer
	li $v0, 1
	li $a0, 0
	syscall
`, tag, rng.Intn(1<<15), 16+rng.Intn(48), 1+rng.Intn(7))
}

// schedule derives one window's requests from the seed: Poisson arrivals
// at serveRate over d and the request mix.
func (b *serveBench) schedule(stream int, d time.Duration) []request {
	rng := rand.New(rand.NewSource(mix(b.seed, uint64(stream))))
	var reqs []request
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if at >= d {
			return reqs
		}
		sr := serve.SessionRequest{
			Tenant: fmt.Sprintf("tenant-%d", rng.Intn(serveTenants)),
			Seed:   rng.Int63(),
		}
		r := request{due: at}
		switch u := rng.Float64(); {
		case u < 0.4:
			sr.Kind, sr.Sessions, sr.Scenario = serve.KindCampaign, serveSessions, serveCampaignFTP
			r.kind = reqCampaignFTP
			if rng.Intn(2) == 0 {
				sr.Scenario, r.kind = serveCampaignExp, reqCampaignExp
			}
		case u < 0.9:
			sr.Kind, r.kind = serve.KindRun, reqRun
			sr.Source = guestSource(rng, len(reqs))
			in := make([]byte, 16+rng.Intn(49))
			rng.Read(in)
			sr.Stdin = string(in)
		default:
			sr.Kind, r.kind = serve.KindRun, reqRunaway
			sr.Source = fmt.Sprintf("# runaway %d\nmain:\taddiu $t0, $t0, %d\n\tj main\n", len(reqs), 1+rng.Intn(1000))
			sr.Budget = runawayBudget
		}
		r.body, _ = json.Marshal(sr)
		reqs = append(reqs, r)
	}
}

// verify checks one response against what its request kind must yield.
func (b *serveBench) verify(r request, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", code, strings.TrimSpace(string(body)))
	}
	var res serve.SessionResult
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	if res.Status != serve.StatusOK {
		return fmt.Errorf("status %s: %s", res.Status, res.Error)
	}
	want := map[int]string{reqCampaignFTP: "detected", reqCampaignExp: "detected", reqRun: "clean", reqRunaway: "timeout"}[r.kind]
	n := 1
	if r.kind == reqCampaignFTP || r.kind == reqCampaignExp {
		n = serveSessions
		ref := b.refs[serveCampaignFTP]
		if r.kind == reqCampaignExp {
			ref = b.refs[serveCampaignExp]
		}
		if len(res.Fingerprints) != n {
			return fmt.Errorf("%d fingerprints, want %d", len(res.Fingerprints), n)
		}
		for i, fp := range res.Fingerprints {
			if fp != fmt.Sprintf("#%d %s", i, ref.fingerprint) {
				return fmt.Errorf("session %d: %s", i, fp)
			}
		}
	}
	if len(res.Outcomes) != 1 || res.Outcomes[want] != n {
		return fmt.Errorf("outcomes %v, want %d %s", res.Outcomes, n, want)
	}
	return nil
}

// loadResult is one open-loop window as the clients saw it.
type loadResult struct {
	t        *tally
	late     []float64       // generator lateness per request, ms
	sendLat  []time.Duration // latency from the actual send
	traced   []bool
	campaign map[string]int // completed correct campaign requests by scenario
}

// load plays reqs open loop. The generator sleeps until each request is
// due and queues it; two senders, one connection each, take requests in
// order. With a log, even-numbered requests are traced: they carry the
// trace header and an op span from send to the last response byte.
func (b *serveBench) load(reqs []request, log *spanLog) *loadResult {
	lr := &loadResult{t: &tally{}, late: make([]float64, len(reqs)),
		sendLat: make([]time.Duration, len(reqs)), traced: make([]bool, len(reqs)),
		campaign: make(map[string]int)}
	lat := make([]time.Duration, len(reqs))
	errs := make([]error, len(reqs))
	if log != nil {
		b.ops = make([]atomic.Pointer[tracedOp], len(reqs))
		b.handlerNs = make([]atomic.Int64, len(reqs))
	}
	start := time.Now().Add(10 * time.Millisecond)
	queue := make(chan int, len(reqs)) // sized to every send: the generator never blocks
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := reqs[i]
				req, err := http.NewRequest(http.MethodPost, b.url+"/v1/sessions", bytes.NewReader(r.body))
				if err != nil {
					errs[i] = err
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				var tr *obs.Tracer
				var off time.Duration
				if log != nil && i%2 == 0 {
					tr, off = log.tracer()
					b.ops[i].Store(&tracedOp{tr, tr.Start(nil, "op")})
					req.Header.Set(traceHeader, strconv.Itoa(i))
					lr.traced[i] = true
				}
				sent := time.Now()
				resp, err := c.Do(req)
				if err != nil {
					errs[i] = err
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				done := time.Now()
				if tr != nil {
					b.ops[i].Load().span.End()
					log.fold(tr, off)
				}
				lat[i] = done.Sub(start.Add(r.due))
				lr.sendLat[i] = done.Sub(sent)
				if err == nil {
					err = b.verify(r, resp.StatusCode, body)
				}
				if err == nil {
					b.completed.Add(1)
				}
				errs[i] = err
			}
		}()
	}
	for i, r := range reqs {
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		lr.late[i] = float64(time.Since(due)) / 1e6
		queue <- i
	}
	close(queue)
	wg.Wait()
	for i, r := range reqs {
		lr.t.ops++
		if errs[i] != nil {
			lr.t.fail(1, "request %d: %v", i, errs[i])
			continue
		}
		lr.t.lat = append(lr.t.lat, lat[i])
		switch r.kind {
		case reqCampaignFTP:
			lr.campaign[serveCampaignFTP]++
		case reqCampaignExp:
			lr.campaign[serveCampaignExp]++
		}
	}
	return lr
}

// scrape reads the server's metrics registry over HTTP.
func (b *serveBench) scrape() (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	resp, err := b.scraper.Get(b.url + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// guestCounters is the machine-counter delta between two scrapes, less
// the snapshot state every campaign session was forked from.
func (b *serveBench) guestCounters(before, after metrics.Snapshot, lr *loadResult) counters {
	c := counters{}
	c.add(after, before)
	for name, n := range lr.campaign {
		for i := 0; i < n*serveSessions; i++ {
			c.add(metrics.Snapshot{}, b.refs[name].base)
		}
	}
	return c
}

// guestInstrs is the guest work the server has retired so far: run
// sessions' instructions plus campaign sessions' own instructions (the
// campaign.session_instructions histogram excludes the snapshot base).
func guestInstrs(snap metrics.Snapshot) float64 {
	sum := 0.0
	for k, v := range snap.Counters {
		if baseName(k) == "cpu.instructions" && strings.Contains(k, `kind="run"`) {
			sum += float64(v)
		}
	}
	for k, h := range snap.Histograms {
		if baseName(k) == "campaign.session_instructions" {
			sum += h.Sum
		}
	}
	return sum
}

// sampleServer cuts the open-loop window into samples of sampleEvery:
// each tick scrapes the server's guest instruction count and reads the
// process CPU time, until stop closes; the partial last sample is dropped
// unless it is the only one.
func (b *serveBench) sampleServer(stop <-chan struct{}) ([]sample, error) {
	var samples []sample
	prev, err := b.scrape()
	if err != nil {
		return nil, err
	}
	w, done := startWatch(), b.completed.Load()
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		last := false
		select {
		case <-stop:
			if len(samples) > 0 {
				return samples, nil
			}
			last = true // a window shorter than one sample keeps its only one
		case <-tick.C:
		}
		cur, err := b.scrape()
		if err != nil {
			return nil, err
		}
		now := b.completed.Load()
		samples = append(samples, w.sample(int(now-done), uint64(guestInstrs(cur)-guestInstrs(prev))))
		if last {
			return samples, nil
		}
		prev, w, done = cur, startWatch(), now
	}
}

func (b *serveBench) run(d time.Duration) (*tally, error) {
	if err := b.reference(); err != nil {
		return nil, err
	}
	stream := b.calls
	b.calls++
	reqs := b.schedule(stream, d)
	stop := make(chan struct{})
	type sampled struct {
		s   []sample
		err error
	}
	ch := make(chan sampled, 1)
	go func() {
		s, err := b.sampleServer(stop)
		ch <- sampled{s, err}
	}()
	lr := b.load(reqs, nil)
	close(stop)
	res := <-ch
	if res.err != nil {
		return nil, res.err
	}
	lr.t.samples = res.s
	return lr.t, nil
}

func (b *serveBench) trace(d time.Duration, log *spanLog) (*tally, map[string]float64, error) {
	if err := b.reference(); err != nil {
		return nil, nil, err
	}
	stream := b.calls
	b.calls++
	before, err := b.scrape()
	if err != nil {
		return nil, nil, err
	}
	w := startWatch()
	lr := b.load(b.schedule(stream, d), log)
	s := w.stop()
	after, err := b.scrape()
	if err != nil {
		return nil, nil, err
	}
	n := float64(lr.t.ops)
	vals := map[string]float64{
		"loadgen.late_p99_ms": quantile(lr.late, 0.99),
		"serve.p99_ms":        lr.t.latencyMs(0.99),
		"go.alloc_kb_per_op":  ratio(s.allocBytes/1024, n),
		"go.gc_cpu_share":     ratio(s.gcCPU, s.totalCPU),
	}
	b.guestCounters(before, after, lr).machineLayers(lr.t.ops, vals)

	// Server span means per request, from the server's own histograms.
	spanMs := func(span string) float64 {
		key := metrics.Labeled("serve.span_seconds", "span", span)
		return ratio((after.Histograms[key].Sum-before.Histograms[key].Sum)*1e3, n)
	}
	server := 0.0
	for _, sp := range []string{"admit", "queue", "run", "build", "boot", "guest-run", "classify", "snapshot-fork", "merge", "settle"} {
		ms := spanMs(sp)
		vals["serve."+strings.ReplaceAll(sp, "-", "_")+"_ms"] = ms
		if sp == "admit" || sp == "queue" || sp == "run" || sp == "settle" {
			server += ms // the top-level spans; the rest nest inside run
		}
	}
	tenantSum := func(snap metrics.Snapshot, counter string) float64 {
		sum := 0.0
		for k, v := range snap.Counters {
			if baseName(k) == "serve.tenant."+counter {
				sum += float64(v)
			}
		}
		return sum
	}
	vals["serve.shed_ratio"] = ratio(tenantSum(after, "shed")-tenantSum(before, "shed"),
		tenantSum(after, "submitted")-tenantSum(before, "submitted"))

	// Client latency from the actual send splits into the handler's time
	// and the HTTP overhead around it; the handler's time not covered by
	// the server's spans is unattributed. Traced requests are the even
	// ones; the odd ones give the tracing overhead.
	var client, handler, untraced float64
	var nt, nu int
	for i, l := range lr.sendLat {
		if lr.traced[i] {
			client += float64(l) / 1e6
			handler += float64(b.handlerNs[i].Load()) / 1e6
			nt++
		} else {
			untraced += float64(l) / 1e6
			nu++
		}
	}
	client, handler, untraced = ratio(client, float64(nt)), ratio(handler, float64(nt)), ratio(untraced, float64(nu))
	vals["http.overhead_ms"] = client - handler
	vals["unattributed_share"] = ratio(handler-server, client)
	vals["trace.overhead_share"] = ratio(client, untraced) - 1
	return lr.t, vals, nil
}

// check has nothing left to do: every response was held, inside the
// window, to sessions computed directly on this process's own snapshots.
func (b *serveBench) check() error { return nil }

// close stops the listener and drains the service. Their errors change
// nothing: the workload is over and the process about to exit.
func (b *serveBench) close() {
	_ = b.hs.Close()
	<-b.served
	for _, c := range append(b.clients, b.scraper) {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx)
}
