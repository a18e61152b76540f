// ptfault runs a deterministic fault-injection campaign against the
// pointer-taintedness machine: seeded injectors corrupt taint shadow
// bits, guest memory/register state, or pending syscall input at a random
// retired-instruction trigger inside forked attack and benign sessions,
// and every run is classified into the six-way outcome taxonomy
// (DetectedAlert / Benign / GuestCrash / SilentTaintLoss / SpuriousAlert
// / Timeout). Same seed ⇒ byte-identical report at any worker count.
//
// Usage:
//
//	ptfault [-seed S] [-n RUNS] [-parallel N] [-fast=false] [-prov]
//	        [-target a,b] [-injector x,y]
//	        [-budget I] [-mem-limit B] [-deadline D] [-retries R] [-backoff D]
//	        [-json FILE] [-runs] [-check] [-flight-dir DIR]
//
// SIGINT/SIGTERM drains: new runs stop, in-flight forks finish, and the
// partial report (marked "interrupted": true) is still printed/written.
//
// Targets: exp1-stack exp2-heap wuftpd-site-exec (attack arm),
// exp1-benign gzips parsers (benign arm). Injectors: none taint-loss
// taint-spurious mem-flip reg-flip input-garble.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ptfault:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ptfault", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "campaign seed (same seed ⇒ identical report)")
	n := fs.Int("n", 600, "number of injected runs")
	parallel := fs.Int("parallel", campaign.DefaultWorkers(), "worker goroutines")
	fast := fs.Bool("fast", true, "use the predecoded basic-block fast path")
	prov := fs.Bool("prov", false, "record taint provenance so SilentTaintLoss rows name the lost input origins")
	targetList := fs.String("target", "", "comma-separated target filter (default: all)")
	injectorList := fs.String("injector", "", "comma-separated injector filter (default: all)")
	jsonPath := fs.String("json", "", "write the JSON coverage report to this file (- = stdout)")
	keepRuns := fs.Bool("runs", false, "include every per-run record in the JSON report")
	check := fs.Bool("check", false, "fail unless the campaign invariants hold (control detects, zero control SilentTaintLoss, injected attack arm still detects)")
	flightDir := fs.String("flight-dir", "", "write each anomalous run's flight-recorder JSONL artifact into this directory")
	ct := core.DefaultContainment()
	ct.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// When the JSON report goes to stdout it is the only thing there: the
	// human-readable report moves to stderr.
	stdout := w
	if *jsonPath == "-" {
		w = os.Stderr
	}

	// SIGINT/SIGTERM drain: stop handing out new runs, finish in-flight
	// forks, and emit the partial report with its interrupted marker
	// instead of dropping the campaign. The announcement is deregistered
	// (deferred last, so first to run) before stop cancels ctx on return.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer context.AfterFunc(ctx, func() {
		stop() // a second signal kills the process
		fmt.Fprintln(os.Stderr, "ptfault: interrupt — draining in-flight runs")
	})()

	cfg := fault.Config{
		Seed:        *seed,
		Runs:        *n,
		Workers:     *parallel,
		Reference:   !*fast,
		Provenance:  *prov,
		Containment: ct,
		Stop:        ctx.Done(),
	}
	if *targetList != "" {
		cfg.Targets = strings.Split(*targetList, ",")
	}
	if *injectorList != "" {
		cfg.InjectorNames = strings.Split(*injectorList, ",")
	}

	prepStart := time.Now()
	targets, err := fault.PrepareTargets(cfg, nil)
	if err != nil {
		return err
	}
	prepElapsed := time.Since(prepStart)

	start := time.Now()
	rep, err := fault.Campaign(cfg, targets, *keepRuns)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	printTable(w, rep)
	if len(rep.SilentLosses) > 0 {
		fmt.Fprintln(w, "\nsilent taint losses:")
		for _, line := range rep.SilentLosses {
			fmt.Fprintln(w, " ", line)
		}
	}
	fmt.Fprintf(w, "\n%d runs x %d workers (%s engine, seed %d): prepare %v, campaign %v, %d retries\n",
		rep.Runs, *parallel, rep.Engine, rep.Seed,
		prepElapsed.Round(time.Millisecond), elapsed.Round(time.Millisecond), rep.Retries)
	if rep.Interrupted {
		fmt.Fprintf(w, "interrupted: drained after %d of %d runs (%d skipped)\n",
			rep.Runs, rep.Runs+rep.Skipped, rep.Skipped)
	}

	if *flightDir != "" {
		paths, err := rep.WriteFlights(*flightDir)
		if err != nil {
			return fmt.Errorf("write flights: %w", err)
		}
		fmt.Fprintf(w, "wrote %d anomaly flight artifacts to %s", len(paths), *flightDir)
		if rep.FlightsDropped > 0 {
			fmt.Fprintf(w, " (%d beyond the retention cap dropped)", rep.FlightsDropped)
		}
		fmt.Fprintln(w)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonPath == "-" {
			if _, err := stdout.Write(data); err != nil {
				return err
			}
		} else if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		} else {
			fmt.Fprintf(w, "wrote %s\n", *jsonPath)
		}
	}

	if *check {
		if err := rep.Check(); err != nil {
			return fmt.Errorf("campaign invariants violated: %w", err)
		}
		fmt.Fprintln(w, "check: control arms clean, injected attack arm still detects")
	}
	return nil
}

// printTable renders the coverage grid: one row per target × injector
// cell, outcome counts by class, then campaign totals.
func printTable(w io.Writer, rep *fault.Report) {
	classes := fault.Classes()
	fmt.Fprintf(w, "%-18s %-5s %-14s %5s", "target", "arm", "injector", "runs")
	for _, c := range classes {
		fmt.Fprintf(w, " %6s", shorten(c.String()))
	}
	fmt.Fprintln(w)

	names := make([]string, 0, len(rep.Targets))
	for name := range rep.Targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tr := rep.Targets[name]
		injs := make([]string, 0, len(tr.Cells))
		for inj := range tr.Cells {
			injs = append(injs, inj)
		}
		sort.Strings(injs)
		for _, inj := range injs {
			cell := tr.Cells[inj]
			fmt.Fprintf(w, "%-18s %-5s %-14s %5d", name, tr.Arm, inj, cell.Runs)
			for _, c := range classes {
				fmt.Fprintf(w, " %6d", cell.Outcomes[c.String()])
			}
			fmt.Fprintln(w)
		}
	}

	fmt.Fprintf(w, "%-18s %-5s %-14s %5d", "TOTAL", "", "", rep.Runs)
	for _, c := range classes {
		fmt.Fprintf(w, " %6d", rep.Outcomes[c.String()])
	}
	fmt.Fprintln(w)
}

// shorten compresses a class name to a 6-char column header.
func shorten(s string) string {
	switch s {
	case "DetectedAlert":
		return "detect"
	case "Benign":
		return "benign"
	case "GuestCrash":
		return " crash"
	case "SilentTaintLoss":
		return "silent"
	case "SpuriousAlert":
		return "spur'o"
	case "Timeout":
		return "tmout "
	}
	return s
}
