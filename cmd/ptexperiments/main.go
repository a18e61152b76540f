// ptexperiments regenerates the paper's tables and figures on the
// reproduction substrate.
//
// Usage:
//
//	ptexperiments [-scale N] [-parallel N] [id ...]
//
// IDs: fig1 fig2 fig3 table1 table2 matrix table3 table4 overhead
// ablation profile. With no IDs, everything runs in paper order
// (profile is selective-only).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ptexperiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ptexperiments", flag.ContinueOnError)
	scale := fs.Int("scale", 1, "input scale for the SPEC-analogue workloads")
	parallel := fs.Int("parallel", 1, "worker goroutines for independent experiment runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		// Failed experiments drop out of reports but never hide the rest:
		// print what succeeded, then report every failure.
		reports, err := experiments.AllWorkers(*parallel)
		for _, r := range reports {
			printReport(r)
		}
		return err
	}
	for _, id := range fs.Args() {
		r, err := one(id, *scale, *parallel)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		printReport(r)
	}
	return nil
}

func one(id string, scale, parallel int) (experiments.Report, error) {
	var (
		text string
		err  error
	)
	title := map[string]string{
		"fig1":     "Figure 1: CERT advisory breakdown 2000-2003",
		"fig2":     "Figure 2 / Section 5.1.1: synthetic attack detection",
		"fig3":     "Figure 3: detector placement in the pipeline",
		"table1":   "Table 1: taintedness propagation by ALU instructions",
		"table2":   "Table 2: attacking WU-FTPD on the proposed architecture",
		"matrix":   "Section 5.1.2: security coverage matrix",
		"table3":   "Table 3: false positive rate on SPEC analogues",
		"table4":   "Table 4: false negative scenarios",
		"overhead": "Section 5.4: architectural and software overhead",
		"ablation": "Design-choice ablations",
		"profile":  "Instruction mix of the SPEC-analogue workloads",
	}[id]
	switch id {
	case "fig1":
		text = experiments.Fig1().Format()
	case "table1":
		text = experiments.Table1().Format()
	case "fig2":
		var r experiments.Fig2Result
		r, err = experiments.Fig2Workers(parallel)
		text = r.Format()
	case "fig3":
		var r experiments.Fig3Result
		r, err = experiments.Fig3()
		text = r.Format()
	case "table2":
		var r experiments.Table2Result
		r, err = experiments.Table2()
		text = r.Format()
	case "matrix":
		var r experiments.MatrixResult
		r, err = experiments.MatrixWorkers(parallel)
		text = r.Format()
	case "table3":
		var r experiments.Table3Result
		r, err = experiments.Table3(scale)
		text = r.Format()
	case "table4":
		var r experiments.Table4Result
		r, err = experiments.Table4()
		text = r.Format()
	case "overhead":
		var r experiments.OverheadResult
		r, err = experiments.Overhead(scale)
		text = r.Format()
	case "ablation":
		var r experiments.AblationResult
		r, err = experiments.Ablations()
		text = r.Format()
	case "profile":
		var r experiments.ProfileResult
		r, err = experiments.Profile(scale)
		text = r.Format()
	default:
		return experiments.Report{}, fmt.Errorf("unknown experiment")
	}
	if err != nil {
		return experiments.Report{}, err
	}
	return experiments.Report{ID: id, Title: title, Text: text}, nil
}

func printReport(r experiments.Report) {
	fmt.Printf("=== %s ===\n\n%s\n", r.Title, r.Text)
}
