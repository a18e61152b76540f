// ptattack runs the paper's attack scenarios against the victim corpus
// under a chosen detection policy and reports each outcome.
//
// Usage:
//
//	ptattack [-policy pointer|control|off] [-prov] [-trace FILE] [scenario ...]
//
// With no scenario names, every scenario runs. Scenarios: exp1 exp2 exp3
// wuftpd-noncontrol wuftpd-control nullhttpd-noncontrol nullhttpd-control
// ghttpd-noncontrol ghttpd-control traceroute fn-intoverflow fn-authflag
// fn-infoleak.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/taint"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ptattack:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("ptattack", flag.ContinueOnError)
	policyName := fs.String("policy", "pointer", "detection policy: pointer, control, off")
	prov := fs.Bool("prov", false, "record taint provenance; detections print their origin chains")
	tracePath := fs.String("trace", "", "stream structured trace events as JSONL to this file, every named scenario in order")
	ct := core.DefaultContainment()
	ct.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, ok := taint.ParsePolicy(*policyName)
	if !ok {
		return fmt.Errorf("unknown policy %q", *policyName)
	}
	opts := attack.Options{Policy: policy, Budget: ct.Budget, MemLimit: ct.MemLimit, Provenance: *prov}
	if *tracePath != "" {
		f, cerr := os.Create(*tracePath)
		if cerr != nil {
			return cerr
		}
		tf := &traceFile{File: f}
		opts.Events = tf
		defer func() {
			if terr := tf.Close(); err == nil && terr != nil {
				err = fmt.Errorf("trace: %w", terr)
			}
		}()
	}

	names := fs.Args()
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
			fmt.Fprintf(w, "  provenance: %s\n", indent(out.Alert.Provenance.String(), "  "))
		}
	}
	return nil
}

// traceFile is the -trace destination. The event stream swallows write
// errors so a full disk never faults the guest; traceFile remembers the
// first one and stops writing, and Close reports it.
type traceFile struct {
	*os.File
	err error
}

func (t *traceFile) Write(p []byte) (n int, err error) {
	if t.err == nil {
		n, t.err = t.File.Write(p)
	}
	return n, t.err
}

// Close closes the file and returns the first write or close error.
func (t *traceFile) Close() error {
	if err := t.File.Close(); t.err == nil {
		t.err = err
	}
	return t.err
}

// indent re-indents every line after the first by prefix.
func indent(s, prefix string) string {
	return strings.ReplaceAll(s, "\n", "\n"+prefix)
}
