package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/cpu"
)

// TestForEachGuardedRecoversPanics: a panicking index degrades to an
// error in its own slot; the rest of the pool completes.
func TestForEachGuardedRecoversPanics(t *testing.T) {
	out, _, err := ForEachGuarded(8, 4, GuardOpts{}, func(i, attempt int) (int, error) {
		if i == 3 {
			panic("wedged fork")
		}
		return i * i, nil
	})
	if err == nil {
		t.Fatal("want the panic surfaced as an error")
	}
	for i, v := range out {
		want := i * i
		if i == 3 {
			want = 0
		}
		if v != want {
			t.Errorf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestForEachGuardedRetryWithReseed: a failing attempt is retried with an
// incremented attempt number, and a retry that succeeds hides the earlier
// failure.
func TestForEachGuardedRetryWithReseed(t *testing.T) {
	out, _, err := ForEachGuarded(4, 2, GuardOpts{Retries: 2}, func(i, attempt int) (string, error) {
		if i == 2 && attempt < 2 {
			return "", fmt.Errorf("transient failure attempt %d", attempt)
		}
		if i == 2 && attempt < 1 {
			panic("also survives panics")
		}
		return fmt.Sprintf("i=%d attempt=%d", i, attempt), nil
	})
	if err != nil {
		t.Fatalf("retries should have absorbed the failures: %v", err)
	}
	if out[2] != "i=2 attempt=2" {
		t.Errorf("out[2] = %q, want the attempt-2 result", out[2])
	}
	if out[0] != "i=0 attempt=0" {
		t.Errorf("out[0] = %q, want a first-attempt result", out[0])
	}
}

// TestForEachGuardedDeadline: an attempt that outlives its deadline is
// abandoned with *DeadlineError — not retried (a deterministic wedge
// would wedge again) — while other indices complete normally.
func TestForEachGuardedDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	out, _, err := ForEachGuarded(3, 3, GuardOpts{Deadline: 20 * time.Millisecond, Retries: 3},
		func(i, attempt int) (int, error) {
			if i == 1 {
				if attempt > 0 {
					t.Errorf("deadline expiry must not retry (attempt %d)", attempt)
				}
				<-release // wedge until the test ends
			}
			return i + 10, nil
		})
	var dl *DeadlineError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlineError, got %v", err)
	}
	if out[0] != 10 || out[2] != 12 {
		t.Errorf("healthy indices lost: %v", out)
	}
	if out[1] != 0 {
		t.Errorf("abandoned index should hold the zero value, got %d", out[1])
	}
}

// TestForEachGuardedInlineAttempts pins the no-deadline path, where each
// attempt runs inline on its worker: a panic still lands as an error in
// its own slot at one and two workers, a retry still sees a fresh attempt
// number, and no attempt gets a goroutine of its own — sampled inside fn,
// the process never holds more goroutines than before the call plus the
// workers.
func TestForEachGuardedInlineAttempts(t *testing.T) {
	for _, workers := range []int{1, 2} {
		before := runtime.NumGoroutine()
		var peak int64
		out, errs, gs := ForEachGuardedSlots(8, workers, GuardOpts{Retries: 1},
			func(i, attempt int) (string, error) {
				for n := int64(runtime.NumGoroutine()); ; {
					p := atomic.LoadInt64(&peak)
					if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
						break
					}
				}
				switch {
				case i == 3:
					panic("wedged fork")
				case i == 5 && attempt == 0:
					return "", fmt.Errorf("transient failure")
				}
				return fmt.Sprintf("i=%d attempt=%d", i, attempt), nil
			})
		for i := range out {
			switch i {
			case 3:
				if out[i] != "" || errs[i] == nil || !strings.Contains(errs[i].Error(), "session 3 attempt 1: recovered panic: wedged fork") {
					t.Errorf("workers=%d: slot 3 = (%q, %v), want the last attempt's recovered panic", workers, out[i], errs[i])
				}
			case 5:
				if out[i] != "i=5 attempt=1" || errs[i] != nil {
					t.Errorf("workers=%d: slot 5 = (%q, %v), want the retry's result", workers, out[i], errs[i])
				}
			default:
				if want := fmt.Sprintf("i=%d attempt=0", i); out[i] != want || errs[i] != nil {
					t.Errorf("workers=%d: slot %d = (%q, %v), want %q", workers, i, out[i], errs[i], want)
				}
			}
		}
		if gs.Retries != 2 {
			t.Errorf("workers=%d: GuardStats.Retries = %d, want 2 (slots 3 and 5)", workers, gs.Retries)
		}
		spawned := 0
		if workers > 1 {
			spawned = workers
		}
		if peak > int64(before+spawned) {
			t.Errorf("workers=%d: %d goroutines inside an attempt, want at most %d: an attempt got its own goroutine",
				workers, peak, before+spawned)
		}
	}

	// A deadline still puts the attempt on a goroutine it can abandon.
	release := make(chan struct{})
	defer close(release)
	_, errs, _ := ForEachGuardedSlots(2, 1, GuardOpts{Deadline: 20 * time.Millisecond},
		func(i, attempt int) (int, error) {
			if i == 0 {
				<-release
			}
			return i, nil
		})
	var dl *DeadlineError
	if !errors.As(errs[0], &dl) || errs[1] != nil {
		t.Errorf("deadline slots = %v, want a DeadlineError in slot 0 only", errs)
	}
}

// TestForEachGuardedSlotAccountingUnderFuzzLoad simulates the fuzzing
// farm's failure mix — healthy runs, panicking workers, deadline wedges,
// plain errors, all in one batch — and checks the invariant the fuzz
// engine's corpus/coverage accounting rests on: every index resolves to
// exactly one slot (a value XOR an error), no slot is lost or filled
// twice, and the per-index disposition is identical at any worker count.
func TestForEachGuardedSlotAccountingUnderFuzzLoad(t *testing.T) {
	const n = 40
	kind := func(i int) int { return i % 4 } // 0 ok, 1 panic, 2 wedge, 3 error
	run := func(workers int) []int {
		var fills [n]int32
		out, _, _ := ForEachGuarded(n, workers, GuardOpts{Deadline: 30 * time.Millisecond},
			func(i, attempt int) (int, error) {
				switch kind(i) {
				case 1:
					panic(fmt.Sprintf("injected panic %d", i))
				case 2:
					time.Sleep(300 * time.Millisecond)
				case 3:
					return 0, fmt.Errorf("injected error %d", i)
				}
				atomic.AddInt32(&fills[i], 1)
				return i + 100, nil
			})
		for i := 0; i < n; i++ {
			if kind(i) == 0 && atomic.LoadInt32(&fills[i]) != 1 {
				t.Errorf("workers=%d: healthy index %d ran %d times, want exactly 1",
					workers, i, fills[i])
			}
		}
		return out
	}

	seq := run(1)
	if len(seq) != n {
		t.Fatalf("got %d slots, want %d", len(seq), n)
	}
	for i, v := range seq {
		switch kind(i) {
		case 0:
			if v != i+100 {
				t.Errorf("healthy slot %d = %d, want %d", i, v, i+100)
			}
		default:
			if v != 0 {
				t.Errorf("failed slot %d holds %d, want the zero value", i, v)
			}
		}
	}
	for _, workers := range []int{4, 16} {
		par := run(workers)
		for i := range seq {
			if par[i] != seq[i] {
				t.Errorf("workers=%d: slot %d = %d, sequential run had %d",
					workers, i, par[i], seq[i])
			}
		}
	}
}

// TestForEachGuardedBackoffSchedule pins the retry backoff: delays grow
// exponentially from Backoff, cap at BackoffMax, carry seeded jitter in
// [0, 50%), and the whole schedule is a pure function of (Seed, index,
// attempt) — two runs sleep the identical sequence without a wall clock
// (the Sleep hook absorbs the delays).
func TestForEachGuardedBackoffSchedule(t *testing.T) {
	schedule := func() []time.Duration {
		var mu sync.Mutex
		var delays []time.Duration
		opts := GuardOpts{
			Retries:    4,
			Backoff:    10 * time.Millisecond,
			BackoffMax: 40 * time.Millisecond,
			Seed:       42,
			Sleep: func(d time.Duration) {
				mu.Lock()
				delays = append(delays, d)
				mu.Unlock()
			},
		}
		_, gs, err := ForEachGuarded(1, 1, opts, func(i, attempt int) (int, error) {
			if attempt < 4 {
				return 0, fmt.Errorf("transient %d", attempt)
			}
			return attempt, nil
		})
		if err != nil {
			t.Fatalf("retries should have absorbed the failures: %v", err)
		}
		if gs.Retries != 4 {
			t.Errorf("GuardStats.Retries = %d, want 4", gs.Retries)
		}
		var total time.Duration
		for _, d := range delays {
			total += d
		}
		if gs.Backoff != total {
			t.Errorf("GuardStats.Backoff = %v, want the sum of delays %v", gs.Backoff, total)
		}
		return delays
	}

	first := schedule()
	if len(first) != 4 {
		t.Fatalf("got %d delays, want 4", len(first))
	}
	// Exponential envelope with jitter: base<<k clamped at max, plus [0, 50%).
	for k, d := range first {
		base := 10 * time.Millisecond << k
		if base > 40*time.Millisecond {
			base = 40 * time.Millisecond
		}
		if d < base || d > base+base/2 {
			t.Errorf("delay %d = %v, want within [%v, %v]", k, d, base, base+base/2)
		}
	}
	second := schedule()
	for k := range first {
		if first[k] != second[k] {
			t.Errorf("backoff schedule not deterministic: run1[%d]=%v run2[%d]=%v",
				k, first[k], k, second[k])
		}
	}
}

// TestForEachGuardedRetryDeadline: with RetryDeadline set, a deadline
// expiry is retried like any failure; an attempt that then completes in
// time hides the expiry.
func TestForEachGuardedRetryDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	out, gs, err := ForEachGuarded(1, 1, GuardOpts{Deadline: 20 * time.Millisecond, Retries: 2, RetryDeadline: true},
		func(i, attempt int) (int, error) {
			if attempt == 0 {
				<-release // wedge the first attempt past its deadline
			}
			return attempt, nil
		})
	if err != nil {
		t.Fatalf("RetryDeadline should have absorbed the expiry: %v", err)
	}
	if out[0] != 1 {
		t.Errorf("out[0] = %d, want the attempt-1 result", out[0])
	}
	if gs.Retries != 1 {
		t.Errorf("GuardStats.Retries = %d, want 1", gs.Retries)
	}
}

// TestForEachGuardedStopDrains pins the drain contract: a closed Stop
// channel stops the pool from handing out new indices, in-flight work
// completes, and every unstarted slot holds the zero value plus
// ErrStopped, with GuardStats accounting for the split.
func TestForEachGuardedStopDrains(t *testing.T) {
	// Pre-closed stop: nothing starts at all.
	stop := make(chan struct{})
	close(stop)
	out, errs, gs := ForEachGuardedSlots(5, 3, GuardOpts{Stop: stop},
		func(i, attempt int) (int, error) { return i + 1, nil })
	if gs.Started != 0 || gs.Stopped != 5 {
		t.Fatalf("pre-closed stop: Started=%d Stopped=%d, want 0/5", gs.Started, gs.Stopped)
	}
	for i := range out {
		if out[i] != 0 || !errors.Is(errs[i], ErrStopped) {
			t.Errorf("slot %d = (%d, %v), want (0, ErrStopped)", i, out[i], errs[i])
		}
	}

	// Stop closed mid-run (sequential, so the watermark is exact): the
	// index that closes it still completes; later indices never start.
	stop2 := make(chan struct{})
	out2, errs2, gs2 := ForEachGuardedSlots(6, 1, GuardOpts{Stop: stop2},
		func(i, attempt int) (int, error) {
			if i == 2 {
				close(stop2)
			}
			return i + 10, nil
		})
	if gs2.Started != 3 || gs2.Stopped != 3 {
		t.Fatalf("mid-run stop: Started=%d Stopped=%d, want 3/3", gs2.Started, gs2.Stopped)
	}
	for i := 0; i < 3; i++ {
		if out2[i] != i+10 || errs2[i] != nil {
			t.Errorf("completed slot %d = (%d, %v)", i, out2[i], errs2[i])
		}
	}
	for i := 3; i < 6; i++ {
		if !errors.Is(errs2[i], ErrStopped) {
			t.Errorf("drained slot %d err = %v, want ErrStopped", i, errs2[i])
		}
	}
}

// TestSummarizeOutcomeCounts pins the per-outcome labels, including the
// containment-era TimedOut bucket, and that the labels partition the
// sessions.
func TestSummarizeOutcomeCounts(t *testing.T) {
	rs := []Result{
		{Outcome: attack.Outcome{Detected: true}},
		{Outcome: attack.Outcome{Detected: true}},
		{Outcome: attack.Outcome{TimedOut: true}},
		{Outcome: attack.Outcome{Crashed: true}},
		{Err: errors.New("boom")},
		{}, // clean
	}
	s := Summarize(rs, cpu.Stats{})
	if s.Detected != 2 || s.TimedOut != 1 || s.Crashed != 1 || s.Errors != 1 {
		t.Errorf("summary %+v", s)
	}
	want := map[string]int{"detected": 2, "timeout": 1, "crashed": 1, "error": 1, "clean": 1}
	total := 0
	for label, n := range s.Outcomes {
		if want[label] != n {
			t.Errorf("Outcomes[%q] = %d, want %d", label, n, want[label])
		}
		total += n
	}
	if total != s.Sessions {
		t.Errorf("outcome labels do not partition sessions: %d != %d", total, s.Sessions)
	}
}
