package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunScenarioTrace: scenario mode replays exp1 with provenance on,
// prints the detection's chain, and streams the run's events to -o as
// JSONL.
func TestRunScenarioTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp1.jsonl")
	var out strings.Builder
	if err := run([]string{"-scenario", "-o", path, "exp1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "DETECTED") || !strings.Contains(out.String(), "  provenance: ") {
		t.Errorf("no detection with a provenance chain:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	lines := 0
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v: %s", lines+1, err, sc.Text())
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("trace file is empty")
	}
}

func TestRunUnknownScenario(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "bogus"}, &out); err == nil {
		t.Error("unknown scenario accepted")
	}
}
