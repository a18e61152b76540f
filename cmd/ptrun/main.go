// ptrun builds a program (C or assembly, by extension) and runs it on the
// pointer-taintedness machine.
//
// Usage:
//
//	ptrun [-policy pointer|control|off] [-cache] [-stdin file] \
//	      [-prov] [-stats-json FILE] [-trace-events FILE] [-trace-chrome FILE] \
//	      [-file guest:host ...] program.c [-- guest args...]
//
// Guest stdout/stderr stream to the host's; a security alert or fault is
// reported with full context and exit status 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/taint"
)

// fileList collects repeated -file guest:host mappings.
type fileList []string

func (f *fileList) String() string { return strings.Join(*f, ",") }
func (f *fileList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// writeExport streams write to the named file, or stdout for "-".
func writeExport(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptrun:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("ptrun", flag.ContinueOnError)
	policyName := fs.String("policy", "pointer", "detection policy: pointer, control, off")
	fast := fs.Bool("fast", true, "use the predecoded basic-block fast path")
	withCache := fs.Bool("cache", false, "simulate the L1/L2 hierarchy")
	stdinPath := fs.String("stdin", "", "file fed to the guest's stdin (tainted)")
	stats := fs.Bool("stats", false, "print execution statistics")
	profile := fs.Bool("profile", false, "print the instruction mix after the run")
	trace := fs.Uint64("trace", 0, "trace the first N instructions to stderr")
	prov := fs.Bool("prov", false, "record taint provenance; an alert prints its origin chain")
	statsJSON := fs.String("stats-json", "", "write the machine-wide metrics snapshot as JSON (- = stdout)")
	traceEvents := fs.String("trace-events", "", "write structured trace events as JSONL to this file")
	traceChrome := fs.String("trace-chrome", "", "write a Chrome trace_event document: build and guest-run spans, trace events inside guest-run")
	var files fileList
	fs.Var(&files, "file", "seed guest file: guestpath:hostpath (repeatable)")
	ct := core.DefaultContainment()
	ct.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() == 0 {
		return 0, fmt.Errorf("no program")
	}
	progPath := fs.Arg(0)
	guestArgs := fs.Args()[1:]

	policy, ok := taint.ParsePolicy(*policyName)
	if !ok {
		return 0, fmt.Errorf("unknown policy %q", *policyName)
	}

	src, err := os.ReadFile(progPath)
	if err != nil {
		return 0, err
	}
	cfg := ct.Apply(core.Config{
		Policy:     policy,
		WithCache:  *withCache,
		Args:       guestArgs,
		ProgName:   progPath,
		Reference:  !*fast,
		Provenance: *prov,
	})
	cfg.TraceEvents = *traceEvents != "" || *traceChrome != ""
	// Harness spans frame the guest's event stream: the Chrome export
	// nests the instruction-level instants under the guest-run span, so
	// the trace reads top-down from harness to guest.
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
		return 0, err
	}
	if *profile {
		m.EnableProfile()
	}
	if *trace > 0 {
		m.SetTracer(os.Stderr, *trace)
	}
	if *stdinPath != "" {
		data, err := os.ReadFile(*stdinPath)
		if err != nil {
			return 0, err
		}
		m.SetStdin(data)
	}
	for _, spec := range files {
		guest, host, ok := strings.Cut(spec, ":")
		if !ok {
			return 0, fmt.Errorf("bad -file %q, want guest:host", spec)
		}
		data, err := os.ReadFile(host)
		if err != nil {
			return 0, err
		}
		m.WriteFile(guest, data)
	}

	gs := tr.Start(nil, "guest-run")
	runErr := m.Run()
	gs.End()
	fmt.Print(m.Stdout())
	if m.Stderr() != "" {
		fmt.Fprint(os.Stderr, m.Stderr())
	}
	if *stats {
		s := m.Stats()
		p := m.Pipeline()
		fmt.Fprintf(os.Stderr, "instructions=%d cycles=%d CPI=%.3f loads=%d stores=%d syscalls=%d tainted-input-bytes=%d\n",
			s.Instructions, p.Cycles, p.CPI(s.Instructions), s.Loads, s.Stores, s.Syscalls,
			m.InputStats().TaintedBytes)
		if *fast {
			fmt.Fprintf(os.Stderr, "block-hits=%d block-misses=%d clean-skips=%d clean-skip-rate=%.3f\n",
				s.BlockHits, s.BlockMisses, s.CleanSkips, s.CleanSkipRate())
		}
		if *withCache {
			l1, l2 := m.CacheStats()
			fmt.Fprintf(os.Stderr, "L1 hit=%.3f L2 hit=%.3f\n", l1.HitRate(), l2.HitRate())
		}
	}
	if *profile {
		fmt.Fprintln(os.Stderr, "instruction mix:")
		for _, row := range m.Profile() {
			fmt.Fprintf(os.Stderr, "  %-8s %d\n", row.Op.Name(), row.Count)
		}
	}
	if *statsJSON != "" {
		if err := writeExport(*statsJSON, m.Metrics().WriteJSON); err != nil {
			return 0, fmt.Errorf("stats-json: %w", err)
		}
	}
	if *traceEvents != "" {
		if err := writeExport(*traceEvents, m.ExportEventsJSONL); err != nil {
			return 0, fmt.Errorf("trace-events: %w", err)
		}
	}
	if *traceChrome != "" {
		chrome := func(w io.Writer) error {
			return obs.ComposeChrome(w, tr.Records(), "guest-run", m.Events())
		}
		if err := writeExport(*traceChrome, chrome); err != nil {
			return 0, fmt.Errorf("trace-chrome: %w", err)
		}
	}
	if dropped := m.EventsDropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "ptrun: trace ring overwrote %d older events (the exports keep the most recent)\n", dropped)
	}
	switch {
	case runErr == nil:
		return 0, nil
	default:
		var alert *core.SecurityAlert
		var ee *core.ExitError
		if errors.As(runErr, &alert) {
			fmt.Fprintln(os.Stderr, "ptrun:", alert)
			if alert.Provenance != nil {
				fmt.Fprintln(os.Stderr, "provenance:", alert.Provenance)
			}
			return 2, nil
		}
		if errors.As(runErr, &ee) {
			return int(ee.Code) & 0xFF, nil
		}
		fmt.Fprintln(os.Stderr, "ptrun:", runErr)
		return 2, nil
	}
}
