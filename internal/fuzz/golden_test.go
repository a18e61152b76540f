package fuzz

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenFile holds the SHA-256 of json.Marshal(Fuzz(goldenCfg)) over every
// input target, one "<engine> <hex>" line per engine. It was recorded from
// the byte-scan coverage map and map-based corpus fold, so it pins the
// report against that implementation and not only against itself.
const goldenFile = "testdata/report-golden.sha256"

// goldenCfg spans seven generations (six of 64 slots, one of 16) on every
// target, so corpus growth between generations reaches the schedule.
func goldenCfg() Config { return Config{Seed: 1, Execs: 400} }

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		engine, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden: malformed line %q", line)
		}
		want[engine] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("golden: %v", err)
	}
	return want
}

func reportSum(t *testing.T, rep *Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// TestFuzzReportGolden: the seeded all-target report hashes to the
// committed value at 1, 2 and 7 workers on the fast engine and on the
// reference engine. Any change to mutation, coverage extraction, corpus
// admission or trimming that alters a single report byte fails here.
func TestFuzzReportGolden(t *testing.T) {
	want := readGolden(t)
	cfg := goldenCfg()
	targets, err := PrepareTargets(cfg)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for _, w := range []int{1, 2, 7} {
		cfg.Workers = w
		rep, err := Fuzz(cfg, targets)
		if err != nil {
			t.Fatalf("fuzz (workers=%d): %v", w, err)
		}
		if got := reportSum(t, rep); got != want["fast"] {
			t.Errorf("fast engine, workers=%d: report sha256 %s, want %s", w, got, want["fast"])
		}
	}

	cfg = goldenCfg()
	cfg.Reference = true
	cfg.Workers = 2
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if got := reportSum(t, rep); got != want["reference"] {
		t.Errorf("reference engine: report sha256 %s, want %s", got, want["reference"])
	}
}
