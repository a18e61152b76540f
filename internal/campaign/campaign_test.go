package campaign

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/taint"
)

// TestParallelMatchesSequential is the campaign determinism gate: the same
// snapshot replayed N times with 1 worker and with 4 workers must produce
// byte-identical per-session alerts, stats, and verdicts (order-normalized
// by session index). Under -race it also proves forked machines share no
// writable state.
func TestParallelMatchesSequential(t *testing.T) {
	for _, name := range []string{"exp1-stack", "wuftpd-site-exec"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := attack.ScenarioByName(name)
			if !ok {
				t.Fatalf("scenario %s missing", name)
			}
			origin, err := sc.Prepare(taint.PolicyPointerTaintedness)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			snap, err := origin.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			session := func(i int, m *attack.Machine) (attack.Outcome, error) {
				return sc.Session(m)
			}

			const n = 6
			run := func(workers int) []Result {
				rs, _ := RunGuarded(snap, n, workers, GuardOpts{}, session)
				return rs
			}
			seq := Fingerprints(run(1))
			par := Fingerprints(run(4))
			for i := range seq {
				if seq[i] != par[i] {
					t.Fatalf("session %d differs between sequential and parallel runs:\n seq: %s\n par: %s", i, seq[i], par[i])
				}
			}

			sum := Summarize(run(4), snap.Stats())
			if sum.Sessions != n || sum.Errors != 0 {
				t.Fatalf("summary: %+v", sum)
			}
			if sum.Detected != n {
				t.Fatalf("pointer-taintedness policy detected %d/%d sessions", sum.Detected, n)
			}
			if sum.Instructions == 0 {
				t.Fatalf("summary charged no instructions to the sessions")
			}
		})
	}
}

// TestSessionsMatchColdTable: forks of one snapshot share its block table,
// so a session may reuse blocks its siblings built. Every session — on 4
// workers racing to publish into a cold table, then on 1 worker over the
// warm one — must fingerprint exactly like the first session on a cold
// table of its own.
func TestSessionsMatchColdTable(t *testing.T) {
	for _, name := range []string{"exp1-stack", "wuftpd-site-exec"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := attack.ScenarioByName(name)
			if !ok {
				t.Fatalf("scenario %s missing", name)
			}
			snapshot := func() *attack.Snapshot {
				origin, err := sc.Prepare(taint.PolicyPointerTaintedness)
				if err != nil {
					t.Fatalf("prepare: %v", err)
				}
				snap, err := origin.Snapshot()
				if err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				return snap
			}
			session := func(i int, m *attack.Machine) (attack.Outcome, error) {
				return sc.Session(m)
			}
			cold, _ := RunGuarded(snapshot(), 1, 1, GuardOpts{}, session)
			want := SessionFingerprint(cold[0])
			snap := snapshot()
			for _, workers := range []int{4, 1} {
				rs, _ := RunGuarded(snap, 8, workers, GuardOpts{}, session)
				for i, r := range rs {
					if fp := SessionFingerprint(r); fp != want {
						t.Fatalf("%d workers, session %d differs from the cold-table session:\n got:  %s\n want: %s", workers, i, fp, want)
					}
				}
			}
		})
	}
}

// TestForEachCollectsAllErrors: one failing index must not hide the
// others, and results keep index order regardless of worker count.
func TestForEachCollectsAllErrors(t *testing.T) {
	for _, workers := range []int{1, 3} {
		out, _, err := ForEachGuarded(10, workers, GuardOpts{}, func(i, _ int) (int, error) {
			if i%4 == 0 {
				return 0, fmt.Errorf("boom-%d", i)
			}
			return i * i, nil
		})
		if len(out) != 10 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for _, i := range []int{1, 2, 3, 5} {
			if out[i] != i*i {
				t.Fatalf("workers=%d: out[%d]=%d", workers, i, out[i])
			}
		}
		if err == nil {
			t.Fatalf("workers=%d: no joined error", workers)
		}
		for _, want := range []string{"boom-0", "boom-4", "boom-8"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("workers=%d: joined error %v missing %s", workers, err, want)
			}
		}
	}
}

// TestForEachEmpty: n <= 0 is a no-op.
func TestForEachEmpty(t *testing.T) {
	out, _, err := ForEachGuarded(0, 4, GuardOpts{}, func(i, _ int) (int, error) { return i, nil })
	if out != nil || err != nil {
		t.Fatalf("got %v, %v", out, err)
	}
}
