package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke: a tiny seeded session over one surface must rediscover
// the exp1 scripted attack (seed 1 finds it within the first batch) and
// render the human report.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-seed", "1", "-execs", "128", "-target", "exp1-stack", "-check", "1"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"exp1-stack", "REDISCOVERED", "execs/sec", "rediscovered 1/1"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunCheckFails: -check above what the budget can rediscover must
// exit with an error naming the shortfall.
func TestRunCheckFails(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-seed", "1", "-execs", "16", "-target", "exp2-heap", "-check", "3"}, &out)
	if err == nil || !strings.Contains(err.Error(), "want >= 3") {
		t.Fatalf("want a rediscovery-shortfall error, got %v", err)
	}
}

// TestRunJSONAndBench: the -json and -bench artifacts must be valid JSON
// with the fields downstream tooling (bench guard, diff scripts) keys on.
func TestRunJSONAndBench(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "rep.json")
	benchPath := filepath.Join(dir, "bench.json")
	var out bytes.Buffer
	err := run([]string{"-seed", "1", "-execs", "64", "-target", "exp1-stack",
		"-json", jsonPath, "-bench", benchPath}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep struct {
		Seed    int64                      `json:"seed"`
		Engine  string                     `json:"engine"`
		Targets map[string]json.RawMessage `json:"targets"`
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if rep.Seed != 1 || rep.Engine != "fast" || rep.Targets["exp1-stack"] == nil {
		t.Errorf("report missing fields: %+v", rep)
	}
	var bench map[string]any
	data, err = os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("bench not valid JSON: %v", err)
	}
	for _, key := range []string{"execs", "execs_per_sec", "min_execs_per_sec", "engine"} {
		if _, ok := bench[key]; !ok {
			t.Errorf("bench missing %q: %v", key, bench)
		}
	}
}

// TestUnknownTarget: a bad -target filter must fail loudly, not fuzz
// nothing.
func TestUnknownTarget(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-target", "no-such-surface", "-execs", "8"}, &out); err == nil {
		t.Fatal("want an error for an unknown target")
	}
}

// TestBatchTooLarge: a generation larger than fuzz.MaxBatch would reuse
// mutation seeds across generations, so -batch rejects it before any
// target boots.
func TestBatchTooLarge(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-batch", "1100000", "-execs", "8"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-batch 1100000") {
		t.Fatalf("want a -batch error, got %v", err)
	}
}

// TestRunJSONStdout: with -json -, stdout carries the report and nothing
// else, so it decodes as one JSON document; the human report goes to
// stderr.
func TestRunJSONStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seed", "1", "-execs", "64", "-target", "exp1-stack", "-json", "-"}, &out); err != nil {
		t.Fatalf("ptfuzz -json -: %v", err)
	}
	var rep struct {
		Seed    int64                      `json:"seed"`
		Targets map[string]json.RawMessage `json:"targets"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, out.String())
	}
	if rep.Seed != 1 || rep.Targets["exp1-stack"] == nil {
		t.Errorf("report missing fields: %+v", rep)
	}
}
