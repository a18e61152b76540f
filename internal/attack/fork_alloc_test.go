package attack

import (
	"runtime"
	"testing"

	"repro/internal/taint"
)

// warmWuFTPD snapshots a prepared wu-ftpd daemon and runs one session on
// a fork, so the snapshot family's block table holds every block a
// session dispatches.
func warmWuFTPD(tb testing.TB) (Scenario, *Snapshot) {
	tb.Helper()
	sc, ok := ScenarioByName("wuftpd-site-exec")
	if !ok {
		tb.Fatal("scenario wuftpd-site-exec missing")
	}
	origin, err := sc.Prepare(taint.PolicyPointerTaintedness)
	if err != nil {
		tb.Fatalf("prepare: %v", err)
	}
	snap, err := origin.Snapshot()
	if err != nil {
		tb.Fatalf("snapshot: %v", err)
	}
	if _, err := sc.Session(snap.Fork()); err != nil {
		tb.Fatalf("warm-up session: %v", err)
	}
	return sc, snap
}

// BenchmarkForkSession is one warm wu-ftpd session: fork the snapshot and
// replay the attack dialogue on the fork.
func BenchmarkForkSession(b *testing.B) {
	sc, snap := warmWuFTPD(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Session(snap.Fork()); err != nil {
			b.Fatal(err)
		}
	}
}

// forkSessionAllocBudget bounds the heap a warm wu-ftpd fork session
// allocates. Forks share the snapshot's predecoded blocks and compiled
// superblocks, so a session pays for its own state — memory pages it
// writes, the kernel and network copies, the dialogue — and nothing
// proportional to the text segment or its hot traces.
const forkSessionAllocBudget = 32 << 10

// TestForkSessionAllocBudget holds BenchmarkForkSession's bytes per
// session, averaged over 100 warm sessions, to forkSessionAllocBudget.
func TestForkSessionAllocBudget(t *testing.T) {
	sc, snap := warmWuFTPD(t)
	const sessions = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		if _, err := sc.Session(snap.Fork()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / sessions; per > forkSessionAllocBudget {
		t.Errorf("a warm fork session allocates %d KB, budget %d KB", per>>10, forkSessionAllocBudget>>10)
	} else {
		t.Logf("a warm fork session allocates %d KB", per>>10)
	}
}
