package main

import (
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
