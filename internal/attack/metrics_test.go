package attack

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/progs"
	"repro/internal/taint"
)

// metricsGoldenDir holds one Machine.Metrics().WriteJSON document per
// machine below, checked in as JSON so that a failure names the key that
// moved. PTMETRICS_RECORD=1 rewrites them.
const metricsGoldenDir = "testdata/metrics-golden"

// metricsGoldenMachines runs each pinned machine to its end state: a
// wu-ftpd fork after one attack session under each boot option that adds
// counters, and one SPEC analogue whose loops run as superblocks. The
// cache and trace machines run the session on their boot: a cache
// hierarchy cannot be snapshotted, and a fork does not keep the event
// sink.
func metricsGoldenMachines(t *testing.T) map[string]*Machine {
	t.Helper()
	sc, ok := ScenarioByName("wuftpd-site-exec")
	if !ok {
		t.Fatal("scenario wuftpd-site-exec missing")
	}
	out := map[string]*Machine{}
	for name, opts := range map[string]Options{
		"wuftpd-fast":      {},
		"wuftpd-reference": {Reference: true},
		"wuftpd-prov":      {Provenance: true},
		"wuftpd-trace":     {TraceEvents: true},
		"wuftpd-cache":     {WithCache: true},
	} {
		opts.Policy = taint.PolicyPointerTaintedness
		m, err := sc.Boot(opts)
		if err != nil {
			t.Fatalf("%s: boot: %v", name, err)
		}
		if !opts.WithCache && !opts.TraceEvents {
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatalf("%s: snapshot: %v", name, err)
			}
			m = snap.Fork()
		}
		if o, err := sc.Session(m); err != nil || !o.Detected {
			t.Fatalf("%s: session %v, %v; want a detection", name, o, err)
		}
		out[name] = m
	}

	p := progs.SpecSuite()[0]
	m, err := Boot(p, Options{
		Policy: taint.PolicyPointerTaintedness,
		Files:  map[string][]byte{"/input": progs.SpecInput(p.Name, 1)},
	})
	if err != nil {
		t.Fatalf("%s: boot: %v", p.Name, err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("%s: run: %v", p.Name, err)
	}
	if m.CPU.Stats().SuperblockInstrs == 0 {
		t.Fatalf("%s retired nothing in superblocks; the golden would not cover sb.*", p.Name)
	}
	out["spec-"+p.Name] = m
	return out
}

// TestMachineMetricsGolden pins the machine counter set: every key,
// value and presence rule of Machine.Metrics on six machines, byte for
// byte in its JSON exposition.
func TestMachineMetricsGolden(t *testing.T) {
	record := os.Getenv("PTMETRICS_RECORD") != ""
	for name, m := range metricsGoldenMachines(t) {
		var got bytes.Buffer
		if err := m.Metrics().WriteJSON(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join(metricsGoldenDir, name+".json")
		if record {
			if err := os.MkdirAll(metricsGoldenDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			diffs := snapshotDiff(t, want, got.Bytes())
			for _, d := range diffs {
				t.Errorf("%s: %s", name, d)
			}
			if len(diffs) == 0 {
				t.Errorf("%s: same values, different bytes:\n%s", name, got.Bytes())
			}
		}
	}
}

// snapshotDiff names every key whose value or presence differs between
// two JSON snapshots.
func snapshotDiff(t *testing.T, want, got []byte) []string {
	t.Helper()
	var w, g metrics.Snapshot
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("golden: %v", err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("got: %v", err)
	}
	var out []string
	diff := func(kind string, want, got map[string]string) {
		for k, wv := range want {
			if gv, ok := got[k]; !ok {
				out = append(out, fmt.Sprintf("%s %s = %s is missing", kind, k, wv))
			} else if gv != wv {
				out = append(out, fmt.Sprintf("%s %s = %s, want %s", kind, k, gv, wv))
			}
		}
		for k, gv := range got {
			if _, ok := want[k]; !ok {
				out = append(out, fmt.Sprintf("%s %s = %s is new", kind, k, gv))
			}
		}
	}
	diff("counter", render(w.Counters), render(g.Counters))
	diff("gauge", render(w.Gauges), render(g.Gauges))
	diff("histogram", render(w.Histograms), render(g.Histograms))
	sort.Strings(out)
	return out
}

func render[V any](m map[string]V) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = fmt.Sprint(v)
	}
	return out
}

// BenchmarkMachineMetrics captures the metrics of a wu-ftpd fork that has
// just run one attack session, as every campaign session does at its end.
func BenchmarkMachineMetrics(b *testing.B) {
	sc, ok := ScenarioByName("wuftpd-site-exec")
	if !ok {
		b.Fatal("scenario wuftpd-site-exec missing")
	}
	origin, err := sc.Prepare(taint.PolicyPointerTaintedness)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := origin.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	m := snap.Fork()
	if _, err := sc.Session(m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Metrics()
	}
}
