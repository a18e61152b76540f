package fault

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenFile holds the SHA-256 of json.Marshal(Campaign(goldenCfg)) over
// every target, one "<engine> <hex>" line per engine. It was recorded
// before the flight-record fold moved into internal/obs, so it pins the
// report bytes against that implementation and not only against itself.
const goldenFile = "testdata/report-golden.sha256"

// goldenCfg covers every target × injector cell four times with a zero
// deadline, so the report depends on the seed alone.
func goldenCfg() Config { return Config{Seed: 1, Runs: 144} }

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

// TestFaultReportGolden: the seeded all-target report, per-run records
// included, hashes to the committed value at 1, 2 and 7 workers on the
// fast engine and on the reference engine. Any change to injection,
// classification, flight retention or the report structs that alters a
// single report byte fails here.
func TestFaultReportGolden(t *testing.T) {
	want := readGolden(t)
	for _, engine := range []string{"fast", "reference"} {
		reference := engine == "reference"
		if reference && testing.Short() {
			t.Skip("reference-engine campaigns are slow")
		}
		targets := prepare(t, reference)
		cfg := goldenCfg()
		cfg.Reference = reference
		for _, w := range []int{1, 2, 7} {
			cfg.Workers = w
			rep, err := Campaign(cfg, targets, true)
			if err != nil {
				t.Fatalf("%s campaign (workers=%d): %v", engine, w, err)
			}
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want[engine] {
				t.Errorf("%s engine, workers=%d: report sha256 %s, want %s", engine, w, got, want[engine])
			}
		}
	}
}
