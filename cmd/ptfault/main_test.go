package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunReproducibleJSON: the CLI contract — same seed ⇒ identical JSON
// report file at any worker count, with per-run records included.
func TestRunReproducibleJSON(t *testing.T) {
	dir := t.TempDir()
	report := func(parallel string) []byte {
		t.Helper()
		path := filepath.Join(dir, "rep-"+parallel+".json")
		var out bytes.Buffer
		args := []string{
			"-seed", "11", "-n", "72", "-parallel", parallel,
			"-runs", "-json", path,
		}
		if err := run(args, &out); err != nil {
			t.Fatalf("ptfault -parallel %s: %v\noutput:\n%s", parallel, err, out.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq := report("1")
	par := report("4")
	if !bytes.Equal(seq, par) {
		t.Errorf("JSON reports differ between -parallel 1 and -parallel 4:\n--- parallel=1\n%s\n--- parallel=4\n%s", seq, par)
	}
	if !bytes.Contains(seq, []byte(`"results"`)) {
		t.Error("-runs did not include per-run records")
	}
}

// TestRunCheckPasses: a small seeded campaign satisfies the -check
// invariants and says so.
func TestRunCheckPasses(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seed", "1", "-n", "72", "-check"}, &out); err != nil {
		t.Fatalf("ptfault -check: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "check: control arms clean") {
		t.Errorf("missing check confirmation in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "TOTAL") {
		t.Errorf("missing coverage table in output:\n%s", out.String())
	}
}

// TestRunFilters: target and injector filters narrow the grid, and an
// unknown injector is a hard error.
func TestRunFilters(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-seed", "5", "-n", "8", "-parallel", "2",
		"-target", "exp1-stack", "-injector", "none,taint-loss",
	}, &out)
	if err != nil {
		t.Fatalf("filtered run: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	if strings.Contains(s, "wuftpd") || strings.Contains(s, "mem-flip") {
		t.Errorf("filter leaked rows:\n%s", s)
	}
	if !strings.Contains(s, "taint-loss") {
		t.Errorf("filtered injector missing:\n%s", s)
	}

	if err := run([]string{"-n", "4", "-injector", "bogus"}, &out); err == nil {
		t.Error("unknown injector should fail")
	}
}

// TestRunJSONStdout: with -json -, stdout carries the report and nothing
// else, so it decodes as one JSON document; the table goes to stderr.
func TestRunJSONStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seed", "1", "-n", "8", "-target", "exp1-stack", "-json", "-"}, &out); err != nil {
		t.Fatalf("ptfault -json -: %v", err)
	}
	var rep struct {
		Runs int `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, out.String())
	}
	if rep.Runs != 8 {
		t.Errorf("report runs = %d, want 8", rep.Runs)
	}
}
