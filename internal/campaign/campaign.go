// Package campaign is the high-throughput replay engine for attack
// sessions: it fans N identical sessions out across a worker pool, each
// session running on a Machine forked copy-on-write from one shared
// Snapshot, and merges per-session results deterministically by session
// index. Replaying one session many ways is how the paper's evaluation
// spends most of its cycles (Section 5.1 attack sweeps, calibration
// probes, false-positive runs), and fork-from-snapshot removes the
// per-session compile+boot cost that otherwise dominates.
//
// Determinism: the simulated machine is fully deterministic, every fork
// starts from byte-identical state, and sessions share no mutable state —
// so session i produces the same alerts, stats, and verdict no matter
// which worker runs it or when. Results land in slot i of a preallocated
// slice; the merged output of a parallel run is therefore byte-identical
// to a sequential run's.
package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// DefaultWorkers returns the default fan-out width, GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ErrStopped marks a slot whose index was never handed out because the
// pool's Stop channel closed first — admission stopped, in-flight work
// finished, and the slot holds its zero value.
var ErrStopped = errors.New("campaign: stopped before the slot was started")

// closed reports whether stop has been closed (a nil stop never is).
func closed(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// forEachStop is the pool core behind ForEachGuardedSlots: fn runs for
// every index in [0, n) across workers goroutines (sequentially when
// workers <= 1), and results and per-slot errors land in index order.
// Indices are handed out by an atomic counter, so which worker runs which
// index is scheduling-dependent, but the output placement is not. A
// closed stop channel makes workers stop pulling new indices (in-flight
// indices still complete); because the counter is monotonic, the started
// prefix is exactly [0, started): every unstarted slot holds the zero
// value and ErrStopped.
func forEachStop[T any](n, workers int, stop <-chan struct{}, fn func(i int) (T, error)) (out []T, errs []error, started int) {
	if n <= 0 {
		return nil, nil, 0
	}
	out = make([]T, n)
	errs = make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		i := 0
		for ; i < n && !closed(stop); i++ {
			out[i], errs[i] = fn(i)
		}
		for j := i; j < n; j++ {
			errs[j] = ErrStopped
		}
		return out, errs, i
	}
	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !closed(stop) {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	started = int(atomic.LoadInt64(&next)) + 1
	if started > n {
		started = n
	}
	for j := started; j < n; j++ {
		errs[j] = ErrStopped
	}
	return out, errs, started
}

// GuardOpts bounds one guarded session attempt (ForEachGuarded).
type GuardOpts struct {
	// Deadline is a wall-clock bound per attempt (0 = none). It is the
	// last-resort backstop behind the machine's own deterministic
	// containment (step budget, memory limit): an attempt past its
	// deadline resolves to *DeadlineError and the pool moves on. The
	// abandoned goroutine still winds down on its own once the guest's
	// step budget trips — it is orphaned, not leaked forever.
	Deadline time.Duration
	// Retries is how many extra attempts an index gets after a panic or
	// error (deadline expiries are not retried unless RetryDeadline is
	// set — a deterministic wedge would only wedge again). fn receives
	// the attempt number so it can reseed per attempt.
	Retries int
	// RetryDeadline also retries attempts abandoned by Deadline. The
	// service layer sets it: a tenant session can time out on transient
	// host contention, which — unlike a deterministic guest wedge — a
	// retry can absorb. The final expiry still resolves to *DeadlineError.
	RetryDeadline bool
	// Backoff is the base delay inserted before retry k (k >= 1):
	// Backoff << (k-1), capped at BackoffMax, plus up to 50% jitter drawn
	// deterministically from Seed and the (index, attempt) pair. Zero
	// disables backoff (retries are immediate, the pre-backoff behavior).
	Backoff time.Duration
	// BackoffMax caps one exponential backoff delay (0 = 32*Backoff).
	BackoffMax time.Duration
	// Seed drives the backoff jitter. The jitter depends only on
	// (Seed, index, attempt), never on scheduling, so a retried campaign
	// stays reproducible.
	Seed int64
	// Stop, when non-nil and closed, stops the pool from handing out new
	// indices: in-flight attempts finish (and are not retried further),
	// and every slot never started resolves to ErrStopped with the zero
	// value — the drain path for SIGTERM and service shutdown.
	Stop <-chan struct{}
	// Sleep replaces time.Sleep for backoff delays (tests pin the
	// schedule without waiting it out). Nil means time.Sleep.
	Sleep func(time.Duration)
}

// GuardStats reports what the pool guard did across one ForEachGuarded
// call — the retry/drain accounting campaign reports surface.
type GuardStats struct {
	// Retries counts extra attempts across all indices (first attempts
	// are free).
	Retries int
	// Backoff is the total backoff delay scheduled before retries.
	Backoff time.Duration
	// Started is how many indices were handed out before Stop closed;
	// slots [Started, n) were never run. Equal to n when not stopped.
	Started int
	// Stopped is n - Started: the slots abandoned unstarted by a drain.
	Stopped int
}

// backoffFor computes the deterministic delay before retry `attempt+1` of
// index i: exponential in the attempt number with seeded jitter in
// [0, 50%) so retrying indices don't stampede in lockstep.
func backoffFor(opts GuardOpts, i, attempt int) time.Duration {
	if opts.Backoff <= 0 {
		return 0
	}
	max := opts.BackoffMax
	if max <= 0 {
		max = 32 * opts.Backoff
	}
	d := opts.Backoff
	for k := 0; k < attempt && d < max; k++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Scheduling-independent jitter from (Seed, i, attempt).
	z := obs.SplitMix64(uint64(opts.Seed), uint64(i)<<16|uint64(attempt))
	jitter := time.Duration(z % uint64(d/2+1))
	return d + jitter
}

// DeadlineError reports that one session attempt outlived its wall-clock
// deadline and was abandoned.
type DeadlineError struct{ Limit time.Duration }

// Error implements the error interface.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("session deadline exceeded (%v)", e.Limit)
}

// ForEachGuarded runs fn for every index in [0, n) across workers
// goroutines (sequentially when workers <= 1) and returns the n results in
// index order. Each attempt of fn runs with a panic recover and an
// optional wall-clock deadline, and a failed index is retried up to
// opts.Retries times with an incremented attempt number (retry-with-
// reseed) after a seeded exponential backoff. One wedged or faulted index
// therefore degrades to an error in its own slot while the rest of the
// pool completes. The joined error covers every failed slot in index
// order, so a failing index never hides later failures. A zero GuardOpts
// runs each index once with panic recovery only.
func ForEachGuarded[T any](n, workers int, opts GuardOpts, fn func(i, attempt int) (T, error)) ([]T, GuardStats, error) {
	out, errs, gs := ForEachGuardedSlots(n, workers, opts, fn)
	return out, gs, errors.Join(errs...)
}

// ForEachGuardedSlots is ForEachGuarded with per-slot errors instead of
// one joined error — the form consumers that must attribute each slot's
// failure (the service layer's per-session results) build on. Slots never
// started because opts.Stop closed hold ErrStopped.
func ForEachGuardedSlots[T any](n, workers int, opts GuardOpts, fn func(i, attempt int) (T, error)) ([]T, []error, GuardStats) {
	sleep := opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var retries, backoff int64
	out, errs, started := forEachStop(n, workers, opts.Stop, func(i int) (T, error) {
		var zero T
		for attempt := 0; ; attempt++ {
			v, err := runGuarded(i, attempt, opts.Deadline, fn)
			if err == nil {
				return v, nil
			}
			var dl *DeadlineError
			if errors.As(err, &dl) && !opts.RetryDeadline {
				return zero, err
			}
			// A drain in progress makes retrying pointless — the pool is
			// flushing partial results, not chasing completeness.
			if attempt >= opts.Retries || closed(opts.Stop) {
				return zero, err
			}
			atomic.AddInt64(&retries, 1)
			if d := backoffFor(opts, i, attempt); d > 0 {
				atomic.AddInt64(&backoff, int64(d))
				sleep(d)
			}
		}
	})
	gs := GuardStats{
		Retries: int(atomic.LoadInt64(&retries)),
		Backoff: time.Duration(atomic.LoadInt64(&backoff)),
		Started: started,
		Stopped: len(out) - started,
	}
	return out, errs, gs
}

// runGuarded executes one attempt on its own goroutine so a deadline can
// abandon it, converting panics into errors.
func runGuarded[T any](i, attempt int, deadline time.Duration, fn func(i, attempt int) (T, error)) (T, error) {
	type res struct {
		v   T
		err error
	}
	ch := make(chan res, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				var zero T
				ch <- res{zero, fmt.Errorf("session %d attempt %d: recovered panic: %v", i, attempt, p)}
			}
		}()
		v, err := fn(i, attempt)
		ch <- res{v, err}
	}()
	if deadline <= 0 {
		r := <-ch
		return r.v, r.err
	}
	select {
	case r := <-ch:
		return r.v, r.err
	case <-time.After(deadline):
		var zero T
		return zero, &DeadlineError{Limit: deadline}
	}
}

// Result is the outcome of one replayed session.
type Result struct {
	Index   int
	Outcome attack.Outcome
	// Stats are the forked CPU's counters after the session; subtract the
	// snapshot's Stats for per-session work.
	Stats cpu.Stats
	// Metrics is the session machine's full metrics snapshot (CPU, memory,
	// kernel) captured when the session ended. Each fork fills its own
	// registry, so capture is race-free; Summarize merges them value-wise.
	Metrics metrics.Snapshot
	Err     error
}

// RunGuarded replays n sessions across workers goroutines, each on a
// fresh fork of snap, behind the pool guard: each session attempt runs
// with panic recovery, an optional wall-clock deadline, and bounded
// retries with seeded exponential backoff; a closed opts.Stop drains the
// pool, leaving unstarted slots holding ErrStopped. A session that panics
// the host (a corrupted fork, an injection gone wrong) is recovered into
// its own Result.Err — it never takes down the pool. Results come back in
// session-index order with per-slot errors folded into Result.Err, plus
// the guard's retry/drain accounting. Slots [0, GuardStats.Started) were
// executed; the rest were abandoned by a drain.
func RunGuarded(snap *attack.Snapshot, n, workers int, opts GuardOpts, session func(i int, m *attack.Machine) (attack.Outcome, error)) ([]Result, GuardStats) {
	out, errs, gs := ForEachGuardedSlots(n, workers, opts, func(i, attempt int) (Result, error) {
		m := snap.Fork()
		o, err := session(i, m)
		if err != nil {
			// Session errors are retryable like panics; the final failure
			// surfaces through the slot's error below.
			return Result{}, err
		}
		return Result{Outcome: o, Stats: m.CPU.Stats(), Metrics: m.Metrics()}, nil
	})
	for i := range out {
		out[i].Index = i
		if errs[i] != nil && out[i].Err == nil {
			out[i].Err = errs[i]
		}
	}
	return out, gs
}

// Summary aggregates a campaign's results.
type Summary struct {
	Sessions    int
	Detected    int
	Crashed     int
	Compromised int
	// TimedOut counts sessions the containment machinery ended: watchdog
	// step-budget trips, guest memory-limit trips, recovered run panics.
	TimedOut int
	Errors   int
	// Retries is the pool guard's extra-attempt count for the campaign.
	// Summarize cannot see the guard, so the caller holding the
	// GuardStats fills it in.
	Retries int
	// Outcomes maps each session's primary verdict label (see Label) to
	// its count; the labels partition the sessions, so the values sum to
	// Sessions.
	Outcomes map[string]int
	// Instructions is the total retired across all sessions, measured from
	// base (normally the snapshot's Stats) — the sessions' own work.
	Instructions uint64
	// Metrics is the value-wise merge of every session's metrics snapshot,
	// plus a campaign.session_instructions histogram of per-session work.
	// Merging is commutative and associative, so a parallel campaign's
	// aggregate equals a sequential one's.
	Metrics metrics.Snapshot
}

// sessionInstrBounds buckets per-session instruction counts (log-spaced).
var sessionInstrBounds = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// Summarize folds results into a Summary; base is the counter state each
// session started from (the snapshot's Stats).
func Summarize(rs []Result, base cpu.Stats) Summary {
	s := Summary{Sessions: len(rs), Outcomes: make(map[string]int)}
	hist := metrics.New()
	h := hist.Histogram("campaign.session_instructions", sessionInstrBounds)
	for _, r := range rs {
		s.Outcomes[Label(r.Outcome, r.Err)]++
		if r.Outcome.Compromised {
			s.Compromised++
		}
		if r.Err == nil && r.Stats.Instructions >= base.Instructions {
			work := r.Stats.Instructions - base.Instructions
			s.Instructions += work
			h.Observe(float64(work))
		}
		s.Metrics = s.Metrics.Merge(r.Metrics)
	}
	s.Metrics = s.Metrics.Merge(hist.Snapshot())
	s.Errors, s.Detected = s.Outcomes["error"], s.Outcomes["detected"]
	s.TimedOut, s.Crashed = s.Outcomes["timeout"], s.Outcomes["crashed"]
	return s
}

// Label maps one session's outcome and error to its primary verdict
// label — error, detected, timeout, crashed, compromised or clean, in that
// precedence. The labels partition sessions: Summarize counts them, and
// ptserve labels its single-run sessions with them.
func Label(out attack.Outcome, err error) string {
	switch {
	case err != nil:
		return "error"
	case out.Detected:
		return "detected"
	case out.TimedOut:
		return "timeout"
	case out.Crashed:
		return "crashed"
	case out.Compromised:
		return "compromised"
	}
	return "clean"
}

// SessionFingerprint renders one result canonically — verdict, evidence,
// error, and the full counter set — without its session index, so results
// of different sessions can be compared for identity.
func SessionFingerprint(r Result) string {
	errText := ""
	if r.Err != nil {
		errText = r.Err.Error()
	}
	return fmt.Sprintf("%s | stats=%+v | err=%q", r.Outcome.String(), r.Stats, errText)
}

// Fingerprints renders each result canonically, tagged with its session
// index, for order-normalized comparison of parallel and sequential
// campaigns: equal slices mean byte-identical per-session alerts, stats,
// and verdicts.
func Fingerprints(rs []Result) []string {
	fps := make([]string, len(rs))
	for i, r := range rs {
		fps[i] = fmt.Sprintf("#%d %s", r.Index, SessionFingerprint(r))
	}
	return fps
}
