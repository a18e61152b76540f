package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for ptbench's child processes,
// so TestCommandLine drives the real parent/child protocol.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// declaration is BENCHMARK.json, decoded strictly.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d declaration
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, declared, code []string) {
	t.Helper()
	if a, b := strings.Join(sorted(declared), " "), strings.Join(sorted(code), " "); a != b {
		t.Errorf("%s: BENCHMARK.json declares\n  %s\nthe code emits\n  %s", what, a, b)
	}
}

// TestDeclarationMatchesCode: every workload and metric the code emits
// is declared in BENCHMARK.json with the unit the code reports, a
// direction and (end to end) a bound, and nothing more is declared.
func TestDeclarationMatchesCode(t *testing.T) {
	d := loadDeclaration(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line", w.Name)
		}
	}
	sameNames(t, "workloads", names, workloadNames())

	names = nil
	maxBound := 0.0
	for _, m := range d.EndToEnd {
		names = append(names, m.Name)
		if m.Unit != unitOf(m.Name) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q; code reports unit %q", m.Name, m.Unit, m.Better, unitOf(m.Name))
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	sameNames(t, "end_to_end", names, endToEndMetrics)
	for _, m := range d.EndToEnd {
		if m.Name == "setup_s" && m.Bound < maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}

	names = nil
	for _, m := range d.PerLayer {
		names = append(names, m.Name)
		if m.Unit != unitOf(m.Name) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q; code reports unit %q", m.Name, m.Unit, m.Better, unitOf(m.Name))
		}
	}
	sameNames(t, "per_layer", names, perLayerMetrics)
}

// TestWorkloads runs every workload at a tiny size, untraced and traced:
// each must pass its oracles, and every metric it measures must be
// declared.
func TestWorkloads(t *testing.T) {
	defer func(c, fz, fr int, w time.Duration) {
		campaignChunk, fuzzExecs, faultRuns, warmUp = c, fz, fr, w
	}(campaignChunk, fuzzExecs, faultRuns, warmUp)
	campaignChunk, fuzzExecs, faultRuns, warmUp = 8, 24, 24, time.Millisecond
	const d = 50 * time.Millisecond
	for _, w := range workloads() {
		// A handful of ops cannot hold the coverage limit steadily;
		// TestCommandLine checks it at full size.
		w.maxUnattributed = 0
		t.Run(w.name, func(t *testing.T) {
			b, err := w.setup(1)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			res, err := measureUntraced(b, d)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("untraced: %+v", res)
			}
			for _, name := range endToEndMetrics[1:] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("untraced %s = %v", name, res.Metrics[name].Value)
				}
			}
			res, err = measureTraced(w, b, d, options{traceDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("traced: %+v", res)
			}
		})
	}
}

// TestCommandLine drives the command as the benchmark harness does, with
// child processes, and checks what it prints: one parseable JSON line per
// declared metric, then the result line with exactly its four keys.
func TestCommandLine(t *testing.T) {
	d := loadDeclaration(t)
	units := make(map[string]string)
	for _, m := range d.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, trace := range []string{"0", "1"} {
		dir := t.TempDir()
		var out, errb bytes.Buffer
		args := []string{"--workload", "campaign-wuftpd", "--seed", "3", "--seconds", "0.05", "--trace", trace, "--trace-dir", dir}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		for _, line := range lines[:len(lines)-1] {
			var m struct {
				Workload, Metric, Unit string
				Value                  float64
			}
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			if m.Workload != "campaign-wuftpd" || units[m.Metric] != m.Unit {
				t.Errorf("undeclared metric line %q", line)
			}
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil || len(keys) != 4 {
			t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
		}
		var res result
		json.Unmarshal([]byte(lines[len(lines)-1]), &res)
		want := endToEndMetrics
		if trace == "1" {
			want = perLayerMetrics
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) || len(lines) != len(want)+1 {
			t.Errorf("trace %s: result %s", trace, lines[len(lines)-1])
		}
		if trace == "1" {
			for _, f := range []string{"campaign-wuftpd.spans.jsonl", "campaign-wuftpd.chrome.json"} {
				if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
					t.Errorf("trace file %s: %v", f, err)
				}
			}
		}
	}
}
