// ptfuzz is the coverage-guided attack fuzzing farm CLI: it mutates
// guest inputs from benign seed corpora over snapshot forks of the
// scripted attack victims, guided by branch-edge coverage, classifying
// every run through the fault-campaign outcome taxonomy and deduplicating
// alerts/crashes by alert-PC + provenance fingerprint. Same seed + budget
// ⇒ byte-identical report at any -parallel setting and on either engine.
//
// Usage:
//
//	ptfuzz [-seed S] [-execs N] [-batch B] [-parallel N] [-fast=false]
//	       [-target a,b] [-budget I] [-mem-limit B] [-deadline D]
//	       [-json FILE] [-corpus] [-bench FILE] [-check N]
//
// SIGINT/SIGTERM drains: no new generations start, in-flight forks
// finish, and the partial report (marked "interrupted": true) is still
// printed/written.
//
// Targets: exp1-stack exp2-heap wuftpd-site-exec. The headline check:
// -check N fails unless at least N targets' scripted attack alert
// fingerprints were rediscovered from benign seeds alone.
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
	"repro/internal/fuzz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ptfuzz:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ptfuzz", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "fuzzing seed (same seed + budget ⇒ identical report)")
	execs := fs.Int("execs", 2000, "mutated-input budget per target")
	batch := fs.Int("batch", 64, "generation size (part of the deterministic schedule)")
	parallel := fs.Int("parallel", campaign.DefaultWorkers(), "worker goroutines (not part of the schedule)")
	fast := fs.Bool("fast", true, "use the predecoded basic-block fast path")
	targetList := fs.String("target", "", "comma-separated target filter (default: all)")
	jsonPath := fs.String("json", "", "write the JSON report to this file (- = stdout)")
	corpus := fs.Bool("corpus", false, "print the admitted corpus entries")
	benchPath := fs.String("bench", "", "write throughput numbers (execs/sec, prepare and fuzz seconds, instructions per exec) to this JSON file")
	check := fs.Int("check", 0, "fail unless at least N scripted attack fingerprints were rediscovered")
	ct := core.DefaultContainment()
	ct.Deadline = 0 // per-exec wall deadlines trade determinism; opt in explicitly
	ct.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch > fuzz.MaxBatch {
		return fmt.Errorf("-batch %d: at most %d", *batch, fuzz.MaxBatch)
	}

	// When the JSON report goes to stdout it is the only thing there: the
	// human-readable report moves to stderr.
	stdout := w
	if *jsonPath == "-" {
		w = os.Stderr
	}

	// SIGINT/SIGTERM drain: stop admitting new generations, finish
	// in-flight forks, and emit the partial report with its interrupted
	// marker instead of dropping the run. The announcement is
	// deregistered (deferred last, so first to run) before stop cancels
	// ctx on return.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer context.AfterFunc(ctx, func() {
		stop() // a second signal kills the process
		fmt.Fprintln(os.Stderr, "ptfuzz: interrupt — draining in-flight execs")
	})()

	cfg := fuzz.Config{
		Seed:        *seed,
		Execs:       *execs,
		Batch:       *batch,
		Workers:     *parallel,
		Reference:   !*fast,
		Containment: ct,
		Stop:        ctx.Done(),
	}
	if *targetList != "" {
		cfg.Targets = strings.Split(*targetList, ",")
	}

	prepStart := time.Now()
	targets, err := fuzz.PrepareTargets(cfg)
	if err != nil {
		return err
	}
	prepElapsed := time.Since(prepStart)

	start := time.Now()
	rep, err := fuzz.Fuzz(cfg, targets)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	printReport(w, rep, *corpus)

	totalExecs, totalTrims, totalInstr := 0, 0, uint64(0)
	for _, tr := range rep.Targets {
		totalExecs += tr.Execs
		totalTrims += tr.TrimExecs
		totalInstr += tr.Instructions
	}
	forks := totalExecs + totalTrims
	execsPerSec := float64(forks) / elapsed.Seconds()
	fmt.Fprintf(w, "\n%d execs + %d trim execs x %d workers (%s engine, seed %d): prepare %v, fuzz %v, %.0f execs/sec\n",
		totalExecs, totalTrims, *parallel, rep.Engine, rep.Seed,
		prepElapsed.Round(time.Millisecond), elapsed.Round(time.Millisecond), execsPerSec)
	if rep.Interrupted {
		fmt.Fprintln(w, "interrupted: drained before the exec budget was spent; partial report above")
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

	if *benchPath != "" {
		bench := map[string]any{
			"execs":             totalExecs,
			"trim_execs":        totalTrims,
			"workers":           *parallel,
			"engine":            rep.Engine,
			"fuzz_seconds":      elapsed.Seconds(),
			"prepare_seconds":   prepElapsed.Seconds(),
			"execs_per_sec":     execsPerSec,
			"instrs_per_exec":   float64(totalInstr) / float64(max(totalExecs, 1)),
			"min_execs_per_sec": 1000.0,
		}
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*benchPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *benchPath)
	}

	if *check > 0 {
		if rep.Rediscovered < *check {
			return fmt.Errorf("rediscovered %d scripted attack fingerprints, want >= %d", rep.Rediscovered, *check)
		}
		fmt.Fprintf(w, "check: rediscovered %d/%d scripted attack fingerprints (want >= %d)\n",
			rep.Rediscovered, len(rep.Targets), *check)
	}
	return nil
}

// printReport renders one block per target: coverage, outcome counts,
// the deduplicated findings, and the rediscovery verdict.
func printReport(w io.Writer, rep *fuzz.Report, corpus bool) {
	names := make([]string, 0, len(rep.Targets))
	for name := range rep.Targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tr := rep.Targets[name]
		fmt.Fprintf(w, "=== %s — %s\n", name, tr.Description)
		fmt.Fprintf(w, "    execs %d (+%d trims), edges %d, features %d, corpus %d, guest instructions %d\n",
			tr.Execs, tr.TrimExecs, tr.Edges, tr.Features, tr.CorpusSize, tr.Instructions)
		keys := make([]string, 0, len(tr.Outcomes))
		for k := range tr.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s %d", k, tr.Outcomes[k]))
		}
		fmt.Fprintf(w, "    outcomes: %s\n", strings.Join(parts, ", "))
		fmt.Fprintf(w, "    scripted: %s\n", tr.ScriptedFingerprint)
		if tr.Rediscovered {
			fmt.Fprintf(w, "    REDISCOVERED at exec %d\n", tr.RediscoveredExec)
		} else {
			fmt.Fprintf(w, "    not rediscovered\n")
		}
		for _, f := range tr.Findings {
			mark := " "
			if f.Scripted {
				mark = "*"
			}
			fmt.Fprintf(w, "  %s %-13s x%-5d first@%-6d %s\n", mark, f.Class, f.Count, f.FirstExec, f.Fingerprint)
			fmt.Fprintf(w, "      input %s\n", f.Input)
		}
		if corpus {
			for _, e := range tr.Corpus {
				fmt.Fprintf(w, "    corpus exec %-6d +%-3d feat len %-4d %s\n", e.Exec, e.NewFeatures, e.Len, e.Input)
			}
		}
	}
}
