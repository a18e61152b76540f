package campaign

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/taint"
)

// cloneSnapshot is a deep copy written out by hand, independent of the
// metrics package's own fold.
func cloneSnapshot(s metrics.Snapshot) metrics.Snapshot {
	var out metrics.Snapshot
	if s.Counters != nil {
		out.Counters = map[string]uint64{}
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
	}
	if s.Gauges != nil {
		out.Gauges = map[string]float64{}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
	}
	if s.Histograms != nil {
		out.Histograms = map[string]metrics.HistogramSnapshot{}
		for k, h := range s.Histograms {
			h.Bounds = append([]float64(nil), h.Bounds...)
			h.Counts = append([]uint64(nil), h.Counts...)
			out.Histograms[k] = h
		}
	}
	return out
}

// TestSummarizeFold: Summarize sums every session's metrics value-wise
// into a hand-summed reference and leaves each input snapshot exactly as
// it was, so an accumulator that adopts an argument's maps fails here.
func TestSummarizeFold(t *testing.T) {
	bounds := []float64{1, 2}
	rs := []Result{
		{Stats: cpu.Stats{Instructions: 1100}, Metrics: metrics.Snapshot{
			Counters:   map[string]uint64{"a": 1, "b": 2},
			Gauges:     map[string]float64{"g": 0.5},
			Histograms: map[string]metrics.HistogramSnapshot{"h": {Bounds: bounds, Counts: []uint64{1, 0, 0}, Sum: 0.5, Count: 1}},
		}},
		{Stats: cpu.Stats{Instructions: 100100}, Metrics: metrics.Snapshot{
			Counters: map[string]uint64{"a": 10, "c": 3},
			Gauges:   map[string]float64{"g": 1.5, "g2": 2},
			Histograms: map[string]metrics.HistogramSnapshot{
				"h":  {Bounds: []float64{1, 2}, Counts: []uint64{0, 1, 1}, Sum: 4.5, Count: 2},
				"h2": {Bounds: []float64{10}, Counts: []uint64{0, 1}, Sum: 11, Count: 1},
			},
		}},
		{Err: errors.New("boom"), Metrics: metrics.Snapshot{Counters: map[string]uint64{"a": 100}}},
		{},
	}
	before := make([]metrics.Snapshot, len(rs))
	for i, r := range rs {
		before[i] = cloneSnapshot(r.Metrics)
	}
	want := metrics.Snapshot{
		Counters: map[string]uint64{"a": 111, "b": 2, "c": 3},
		Gauges:   map[string]float64{"g": 2, "g2": 2},
		Histograms: map[string]metrics.HistogramSnapshot{
			"h":  {Bounds: []float64{1, 2}, Counts: []uint64{1, 1, 1}, Sum: 5, Count: 3},
			"h2": {Bounds: []float64{10}, Counts: []uint64{0, 1}, Sum: 11, Count: 1},
			// Work of 1000 and 100000 instructions above the base of 100;
			// the failed session records none.
			"campaign.session_instructions": {
				Bounds: sessionInstrBounds,
				Counts: []uint64{1, 0, 1, 0, 0, 0, 0},
				Sum:    101000,
				Count:  2,
			},
		},
	}
	got := Summarize(rs, cpu.Stats{Instructions: 100}).Metrics
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Summarize metrics\n got  %+v\n want %+v", got, want)
	}
	for i, r := range rs {
		if !reflect.DeepEqual(r.Metrics, before[i]) {
			t.Errorf("Summarize changed result %d's metrics:\n got  %+v\n want %+v", i, r.Metrics, before[i])
		}
	}
	// Folding the same results again must give the same sum: nothing of
	// the first fold leaked into them.
	if again := Summarize(rs, cpu.Stats{Instructions: 100}).Metrics; !reflect.DeepEqual(again, want) {
		t.Errorf("second Summarize over the same results\n got  %+v\n want %+v", again, want)
	}
}

// BenchmarkSummarize folds one 512-session chunk of wu-ftpd attack
// results, the chunk size of the campaign-wuftpd benchmark workload.
func BenchmarkSummarize(b *testing.B) {
	sc, ok := attack.ScenarioByName("wuftpd-site-exec")
	if !ok {
		b.Fatal("scenario wuftpd-site-exec missing")
	}
	m, err := sc.Prepare(taint.PolicyPointerTaintedness)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	f := snap.Fork()
	out, err := sc.Session(f)
	if err != nil {
		b.Fatal(err)
	}
	r := Result{Outcome: out, Stats: f.CPU.Stats(), Metrics: f.Metrics()}
	rs := make([]Result, 512)
	for i := range rs {
		rs[i] = r
		rs[i].Metrics = cloneSnapshot(r.Metrics)
	}
	base := snap.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(rs, base)
	}
}
