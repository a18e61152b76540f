package attack

import (
	"sync"
	"testing"

	"repro/internal/taint"
)

// TestForkMatchesDirectRun: for every replayable scenario, a session on a
// machine forked from a snapshot must classify identically to a session
// on a directly booted machine, and repeated forks must agree with each
// other — the snapshot layer must be behaviourally invisible.
func TestForkMatchesDirectRun(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			direct, err := sc.Prepare(taint.PolicyPointerTaintedness)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			want, err := sc.Session(direct)
			if err != nil {
				t.Fatalf("direct session: %v", err)
			}

			origin, err := sc.Prepare(taint.PolicyPointerTaintedness)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			snap, err := origin.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			var got [2]Outcome
			for i := range got {
				out, err := sc.Session(snap.Fork())
				if err != nil {
					t.Fatalf("forked session %d: %v", i, err)
				}
				got[i] = out
			}
			if got[0].String() != want.String() {
				t.Errorf("forked outcome differs from direct run:\n fork:   %s\n direct: %s", got[0], want)
			}
			if got[0].String() != got[1].String() {
				t.Errorf("two forks of one snapshot disagree:\n %s\n %s", got[0], got[1])
			}

			// The origin machine must stay usable after being snapshotted:
			// running the session on it directly must still classify the same.
			originOut, err := sc.Session(origin)
			if err != nil {
				t.Fatalf("origin session after snapshot: %v", err)
			}
			if originOut.String() != want.String() {
				t.Errorf("origin diverged after snapshot:\n origin: %s\n direct: %s", originOut, want)
			}
			// And the origin's post-session writes must not have polluted
			// the snapshot: one more fork still reproduces the outcome.
			lateOut, err := sc.Session(snap.Fork())
			if err != nil {
				t.Fatalf("late forked session: %v", err)
			}
			if lateOut.String() != want.String() {
				t.Errorf("fork taken after origin ran diverged:\n fork:   %s\n direct: %s", lateOut, want)
			}
		})
	}
}

// TestConcurrentForkedSessions runs many forks of one snapshot on separate
// goroutines at once; under -race this is the proof that forked machines
// never observe each other's writes.
func TestConcurrentForkedSessions(t *testing.T) {
	sc, ok := ScenarioByName("wuftpd-site-exec")
	if !ok {
		t.Fatal("scenario missing")
	}
	origin, err := sc.Prepare(taint.PolicyPointerTaintedness)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	snap, err := origin.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	const sessions = 8
	outs := make([]string, sessions)
	memFPs := make([]uint64, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := snap.Fork()
			out, err := sc.Session(m)
			outs[i], memFPs[i], errs[i] = out.String(), m.Mem.Fingerprint(), err
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if outs[i] != outs[0] {
			t.Errorf("session %d outcome diverged:\n %s\n %s", i, outs[i], outs[0])
		}
		if memFPs[i] != memFPs[0] {
			t.Errorf("session %d final memory diverged: %#x vs %#x", i, memFPs[i], memFPs[0])
		}
	}
	if snap.Stats().Instructions == 0 {
		t.Fatal("snapshot unexpectedly empty") // sanity: snapshot captured a booted machine
	}
}

// TestSnapshotRejectsCacheMachines: taint-carrying cache lines are not
// copy-on-write, so cache-hierarchy machines must refuse to snapshot.
func TestSnapshotRejectsCacheMachines(t *testing.T) {
	p, err := mustProg("exp1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Boot(p, Options{WithCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("snapshot of a cache-hierarchy machine succeeded; want error")
	}
}
