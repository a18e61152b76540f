package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/attack"
)

func TestRunNamedScenario(t *testing.T) {
	if err := run([]string{"exp1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-policy", "control", "exp1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-policy", "off", "exp2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"unknown-scenario"}, io.Discard); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-policy", "bogus", "exp1"}, io.Discard); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestRunProvenanceTrace: -prov reaches the driver's boot (the detection
// prints its provenance chain) and -trace streams the machine's events.
func TestRunProvenanceTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "exp1.jsonl")
	var out strings.Builder
	if err := run([]string{"-prov", "-trace", trace, "exp1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "DETECTED") || !strings.Contains(out.String(), "  provenance: ") {
		t.Errorf("no detection with a provenance chain:\n%s", out.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("trace file is empty")
	}
}

// TestProvTraceGolden: over every scenario, the -prov stdout and the
// -trace JSONL hash to the values in testdata, recorded from the
// standalone scenario tracer this CLI replaced.
func TestProvTraceGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/prov-trace-golden.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden: malformed line %q", line)
		}
		want[name] = sum
	}

	trace := filepath.Join(t.TempDir(), "all.jsonl")
	var out strings.Builder
	if err := run([]string{"-prov", "-trace", trace}, &out); err != nil {
		t.Fatal(err)
	}
	jsonl, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{"stdout": []byte(out.String()), "trace": jsonl} {
		if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != want[name] {
			t.Errorf("%s sha256 = %s, want %s", name, sum, want[name])
		}
	}
}

// TestRunTraceWriteError: a -trace destination that refuses writes fails
// the command with its path, after every scenario has run and printed.
func TestRunTraceWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	var out strings.Builder
	err := run([]string{"-prov", "-trace", "/dev/full", "exp1", "exp2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "/dev/full") {
		t.Fatalf("err = %v, want a write error naming /dev/full", err)
	}
	for _, name := range []string{"exp1", "exp2"} {
		if !strings.Contains(out.String(), name+" ") {
			t.Errorf("%s did not run:\n%s", name, out.String())
		}
	}
	if !strings.Contains(out.String(), "DETECTED") {
		t.Errorf("the guest run was disturbed:\n%s", out.String())
	}
}

// TestRunBudget: -budget reaches the driver's boot, so exp1 trips the
// watchdog long before the overflow.
func TestRunBudget(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-budget", "1000", "exp1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "TIMEOUT") {
		t.Errorf("exp1 under -budget 1000 did not time out:\n%s", out.String())
	}
}

func TestScenarioRegistryComplete(t *testing.T) {
	// Every corpus attack should be reachable from the CLI.
	want := []string{
		"exp1", "exp2", "exp3",
		"wuftpd-noncontrol", "wuftpd-control",
		"nullhttpd-noncontrol", "nullhttpd-control",
		"ghttpd-noncontrol", "ghttpd-control",
		"traceroute", "env-overflow",
		"fn-intoverflow", "fn-authflag", "fn-infoleak", "fn-authflag-annotated",
	}
	for _, name := range want {
		if _, ok := attack.DriverByName(name); !ok {
			t.Errorf("scenario %q missing from the registry", name)
		}
	}
	drivers := attack.Drivers()
	if len(drivers) != len(want) {
		t.Errorf("registry has %d scenarios, want %d", len(drivers), len(want))
	}
	for i := 1; i < len(drivers); i++ {
		if drivers[i-1].Name >= drivers[i].Name {
			t.Errorf("registry not sorted by name: %q before %q", drivers[i-1].Name, drivers[i].Name)
		}
	}
}
