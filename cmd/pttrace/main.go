// pttrace is the observability front-end for the pointer-taintedness
// machine: it runs a program (or one of the paper's attack scenarios)
// with taint provenance and structured trace events enabled, exports the
// event stream (JSONL or Chrome trace_event), and prints the provenance
// chain of any security alert — the machine-generated forensic story of
// which input bytes made the dereferenced value tainted.
//
// Usage:
//
//	pttrace [-policy pointer|control|off] [-format jsonl|chrome] [-o FILE]
//	        [-cap N] [-stdin file] program.c [-- guest args...]
//	pttrace -scenario [-policy ...] [-o FILE] [scenario ...]
//
// Program mode buffers events in a ring (most recent -cap entries) and
// exports them after the run. Scenario mode replays named attack
// scenarios (default: all; same names as ptattack), streams events as
// JSONL while they happen, and prints each detection's provenance chain.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/taint"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pttrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pttrace", flag.ContinueOnError)
	policyName := fs.String("policy", "pointer", "detection policy: pointer, control, off")
	scenarioMode := fs.Bool("scenario", false, "treat arguments as attack scenario names (default: all scenarios)")
	format := fs.String("format", "jsonl", "program-mode event export format: jsonl or chrome")
	outPath := fs.String("o", "", "write the event export to this file (- = stdout; scenario mode streams JSONL)")
	capN := fs.Int("cap", 0, "program-mode event ring capacity (0 = default 4096)")
	stdinPath := fs.String("stdin", "", "file fed to the guest's stdin (tainted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, ok := taint.ParsePolicy(*policyName)
	if !ok {
		return fmt.Errorf("unknown policy %q", *policyName)
	}
	if *scenarioMode {
		return runScenarios(w, policy, *outPath, fs.Args())
	}
	if fs.NArg() == 0 {
		return errors.New("no program (or use -scenario)")
	}
	return runProgram(w, policy, *format, *outPath, *capN, *stdinPath, fs.Arg(0), fs.Args()[1:])
}

// runScenarios replays the named attack scenarios with provenance forced
// on, printing each outcome and its alert's machine-generated provenance
// chain; with outPath set, the scenarios' trace events stream there as
// JSONL while they execute.
func runScenarios(w io.Writer, policy taint.Policy, outPath string, names []string) error {
	opts := attack.Options{Policy: policy, Provenance: true}
	if outPath != "" {
		f, err := createOut(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		opts.Events = f
	}
	if len(names) == 0 {
		for _, d := range attack.Drivers() {
			names = append(names, d.Name)
		}
	}
	for _, name := range names {
		d, ok := attack.DriverByName(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q", name)
		}
		out, err := d.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "%-22s [%s]  %v\n", name, policy, out)
		if out.Alert != nil && out.Alert.Provenance != nil {
			fmt.Fprintf(w, "  provenance: %s\n",
				strings.ReplaceAll(out.Alert.Provenance.String(), "\n", "\n  "))
		}
	}
	return nil
}

// runProgram builds and runs one program with provenance and the event
// ring enabled, exports the buffered events, and reports any alert with
// its chain.
func runProgram(w io.Writer, policy taint.Policy, format, outPath string, capN int, stdinPath, progPath string, guestArgs []string) error {
	src, err := os.ReadFile(progPath)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Policy:     policy,
		Args:       guestArgs,
		ProgName:   progPath,
		Provenance: true,
		TraceEvents: func() int {
			if capN > 0 {
				return capN
			}
			return -1
		}(),
	}
	// Harness spans (build, guest-run) frame the guest's own event stream:
	// the Chrome export nests the instruction-level instants under the
	// guest-run span so the trace reads top-down from harness to guest.
	tr := obs.NewTracer(0)
	bs := tr.Start(nil, "build")
	var m *core.Machine
	if strings.HasSuffix(progPath, ".s") {
		m, err = core.BuildASM(cfg, string(src))
	} else {
		m, err = core.BuildC(cfg, string(src))
	}
	bs.End()
	if err != nil {
		return err
	}
	if stdinPath != "" {
		data, err := os.ReadFile(stdinPath)
		if err != nil {
			return err
		}
		m.SetStdin(data)
	}

	gs := tr.Start(nil, "guest-run")
	runErr := m.Run()
	gs.End()
	fmt.Fprint(w, m.Stdout())

	if outPath != "" {
		f, err := createOut(outPath)
		if err != nil {
			return err
		}
		export := m.ExportEventsJSONL
		switch format {
		case "jsonl":
		case "chrome":
			export = func(w io.Writer) error {
				return obs.ComposeChrome(w, tr.Records(), "guest-run", m.Events())
			}
		default:
			f.Close()
			return fmt.Errorf("unknown format %q (want jsonl or chrome)", format)
		}
		if err := export(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	// Truncation is loud regardless of whether anything was exported: a
	// ring that silently overwrote events is exactly the failure mode a
	// forensic trace must not hide.
	if dropped := m.EventsDropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "pttrace: ring overwrote %d older events (raise -cap to keep more)\n", dropped)
	}

	var alert *core.SecurityAlert
	if errors.As(runErr, &alert) {
		fmt.Fprintln(w, "alert:", alert)
		if alert.Provenance != nil {
			fmt.Fprintln(w, "provenance:", alert.Provenance)
		}
		return nil
	}
	if runErr != nil {
		var ee *core.ExitError
		if errors.As(runErr, &ee) {
			fmt.Fprintf(w, "exit status %d\n", ee.Code)
			return nil
		}
		return runErr
	}
	return nil
}

// createOut opens path for writing; "-" means stdout (never closed early,
// so Close is a no-op wrapper there).
func createOut(path string) (io.WriteCloser, error) {
	if path == "-" {
		return nopCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
