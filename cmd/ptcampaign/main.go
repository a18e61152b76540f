// ptcampaign replays M copies of one attack session at high throughput:
// the victim is booted once to its steady state, snapshotted, and every
// session runs on a cheap copy-on-write fork of that snapshot, fanned out
// across a worker pool. It reports sessions/sec and, with -json, writes a
// machine-readable benchmark comparing fork-from-snapshot against
// boot-from-image and a parallel sweep against a sequential one.
//
// Usage:
//
//	ptcampaign [-scenario name] [-n M] [-parallel N] [-fast=false] [-json FILE]
//
// Scenarios: exp1-stack exp2-heap wuftpd-site-exec.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/taint"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ptcampaign:", err)
		os.Exit(1)
	}
}

// benchReport is the -json report's schema: the machine-readable perf
// figures for the snapshot/fork + campaign layer.
type benchReport struct {
	Scenario   string `json:"scenario"`
	Sessions   int    `json:"sessions"`
	Workers    int    `json:"workers"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Campaign throughput (fork path, Workers goroutines).
	SessionsPerSec    float64 `json:"sessions_per_sec"`
	GuestInstructions uint64  `json:"guest_instructions"`
	NsPerInstr        float64 `json:"ns_per_instr"`

	// Repeated-session replay: microseconds to a session-ready machine
	// via Snapshot.Fork versus a full boot-from-image (build cache warm),
	// and end-to-end per-session time including the session itself.
	ForkUsMachineReady float64 `json:"fork_us_machine_ready"`
	BootUsMachineReady float64 `json:"boot_us_machine_ready"`
	ForkVsBootSpeedup  float64 `json:"fork_vs_boot_speedup"`
	ForkUsPerSession   float64 `json:"fork_us_per_session"`
	BootUsPerSession   float64 `json:"boot_us_per_session"`
	EndToEndSpeedup    float64 `json:"end_to_end_speedup"`

	// Parallel sweep: the same campaign sequentially and with
	// ParallelWorkers workers. On a single-core host (CPUs=1) the wall
	// clock cannot improve, so the comparison is skipped outright and
	// ParallelSkipped carries the reason — a 1.0x "speedup" measured on
	// one core would read as a scaling regression when it is only a
	// statement about the host.
	SequentialSec   float64 `json:"sequential_elapsed_sec,omitempty"`
	ParallelSec     float64 `json:"parallel_elapsed_sec,omitempty"`
	ParallelWorkers int     `json:"parallel_workers,omitempty"`
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
	ParallelSkipped string  `json:"parallel_skipped,omitempty"`

	// Per-outcome session counts. Outcomes maps the summary label
	// (detected / crashed / timeout / compromised / error / clean) to a
	// count; the labels partition the sessions.
	Detected    int            `json:"detected"`
	Crashed     int            `json:"crashed"`
	TimedOut    int            `json:"timed_out"`
	Compromised int            `json:"compromised"`
	Errors      int            `json:"errors"`
	Retries     int            `json:"retries"`
	Outcomes    map[string]int `json:"outcomes"`

	// Metrics is the deterministic value-wise merge of every session
	// machine's metrics snapshot (plus the per-session instruction
	// histogram), identical at any worker count.
	Metrics metrics.Snapshot `json:"metrics"`
}

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("ptcampaign", flag.ContinueOnError)
	name := fs.String("scenario", "wuftpd-site-exec", "attack session to replay")
	n := fs.Int("n", 32, "number of sessions to replay")
	parallel := fs.Int("parallel", campaign.DefaultWorkers(), "worker goroutines")
	fast := fs.Bool("fast", true, "use the predecoded basic-block fast path")
	jsonPath := fs.String("json", "", "also write a benchmark report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc, ok := attack.ScenarioByName(*name)
	if !ok {
		names := make([]string, 0, 3)
		for _, s := range attack.Scenarios() {
			names = append(names, s.Name)
		}
		return fmt.Errorf("unknown scenario %q (have: %s)", *name, strings.Join(names, " "))
	}

	opts := attack.Options{Policy: taint.PolicyPointerTaintedness, Reference: !*fast}
	origin, err := sc.Boot(opts)
	if err != nil {
		return fmt.Errorf("prepare %s: %w", sc.Name, err)
	}
	snap, err := origin.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	session := func(i int, m *attack.Machine) (attack.Outcome, error) {
		return sc.Session(m)
	}

	// The campaign proper, behind the pool guard: panic isolation plus one
	// seeded-backoff retry per session, with the retry count surfaced in
	// the summary and the JSON report.
	start := time.Now()
	results, gs := campaign.RunGuarded(snap, *n, *parallel,
		campaign.GuardOpts{Retries: 1, Backoff: 50 * time.Millisecond, Seed: 1}, session)
	elapsed := time.Since(start)
	sum := campaign.Summarize(results, snap.Stats())
	sum.Retries = gs.Retries

	// Identical sessions must agree; a divergence means shared state leaked.
	for i := 1; i < len(results); i++ {
		if a, b := campaign.SessionFingerprint(results[i]), campaign.SessionFingerprint(results[0]); a != b {
			return fmt.Errorf("session %d diverged from session 0:\n%s\n%s", i, a, b)
		}
	}

	perSec := float64(sum.Sessions) / elapsed.Seconds()
	fmt.Fprintf(w, "%s: %d sessions x %d workers in %v  (%.0f sessions/sec)\n",
		sc.Name, sum.Sessions, *parallel, elapsed.Round(time.Microsecond), perSec)
	fmt.Fprintf(w, "verdicts: %d detected, %d crashed, %d timed out, %d compromised, %d errors, %d retries (all sessions identical)\n",
		sum.Detected, sum.Crashed, sum.TimedOut, sum.Compromised, sum.Errors, sum.Retries)
	if len(results) > 0 {
		fmt.Fprintf(w, "session verdict: %s\n", results[0].Outcome)
	}
	if sum.Errors > 0 {
		return fmt.Errorf("%d sessions failed", sum.Errors)
	}

	if *jsonPath == "" {
		return nil
	}

	rep := benchReport{
		Scenario:          sc.Name,
		Sessions:          sum.Sessions,
		Workers:           *parallel,
		CPUs:              runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		SessionsPerSec:    perSec,
		GuestInstructions: sum.Instructions,
		Detected:          sum.Detected,
		Crashed:           sum.Crashed,
		TimedOut:          sum.TimedOut,
		Compromised:       sum.Compromised,
		Errors:            sum.Errors,
		Retries:           sum.Retries,
		Outcomes:          sum.Outcomes,
		Metrics:           sum.Metrics,
	}
	if sum.Instructions > 0 {
		rep.NsPerInstr = float64(elapsed.Nanoseconds()) / float64(sum.Instructions)
	}

	// Fork-from-snapshot vs boot-from-image, both to a session-ready
	// machine and end-to-end through the session.
	forkReady := timePer(*n, func() error { snap.Fork(); return nil })
	bootReady := timePer(minInt(*n, 8), func() error {
		_, err := sc.Boot(opts)
		return err
	})
	forkFull := timePer(*n, func() error {
		_, err := sc.Session(snap.Fork())
		return err
	})
	bootFull := timePer(minInt(*n, 8), func() error {
		m, err := sc.Boot(opts)
		if err != nil {
			return err
		}
		_, err = sc.Session(m)
		return err
	})
	rep.ForkUsMachineReady = forkReady.Seconds() * 1e6
	rep.BootUsMachineReady = bootReady.Seconds() * 1e6
	rep.ForkVsBootSpeedup = bootReady.Seconds() / forkReady.Seconds()
	rep.ForkUsPerSession = forkFull.Seconds() * 1e6
	rep.BootUsPerSession = bootFull.Seconds() * 1e6
	rep.EndToEndSpeedup = bootFull.Seconds() / forkFull.Seconds()

	// Parallel sweep: same campaign, 1 worker vs 4. Pointless on one
	// core — mark it skipped rather than reporting a vacuous 1.0x.
	if runtime.NumCPU() == 1 {
		rep.ParallelSkipped = "skipped_single_cpu"
	} else {
		t0 := time.Now()
		campaign.RunGuarded(snap, *n, 1, campaign.GuardOpts{}, session)
		seq := time.Since(t0)
		t1 := time.Now()
		campaign.RunGuarded(snap, *n, 4, campaign.GuardOpts{}, session)
		par := time.Since(t1)
		rep.SequentialSec = seq.Seconds()
		rep.ParallelSec = par.Seconds()
		rep.ParallelWorkers = 4
		rep.ParallelSpeedup = seq.Seconds() / par.Seconds()
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "fork %dus vs boot %dus to machine-ready (%.1fx); wrote %s\n",
		int(rep.ForkUsMachineReady), int(rep.BootUsMachineReady), rep.ForkVsBootSpeedup, *jsonPath)
	return nil
}

// timePer runs fn n times and returns the mean duration per call.
func timePer(n int, fn func() error) time.Duration {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return time.Since(start) // partial; the caller's run already validated fn
		}
	}
	return time.Since(start) / time.Duration(n)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
