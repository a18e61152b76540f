package metrics

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	r.Counter("cpu.instructions").Add(100)
	r.Counter("cpu.instructions").Inc()
	r.Gauge("mem.resident_bytes").Set(4096)
	h := r.Histogram("session.instructions", []float64{10, 100, 1000})
	h.Observe(5)
	h.Observe(50)
	h.Observe(50)
	h.Observe(5000)

	s := r.Snapshot()
	if s.Counters["cpu.instructions"] != 101 {
		t.Fatalf("counter = %d, want 101", s.Counters["cpu.instructions"])
	}
	if s.Gauges["mem.resident_bytes"] != 4096 {
		t.Fatalf("gauge = %g", s.Gauges["mem.resident_bytes"])
	}
	hs := s.Histograms["session.instructions"]
	if want := []uint64{1, 2, 0, 1}; !reflect.DeepEqual(hs.Counts, want) {
		t.Fatalf("hist counts = %v, want %v", hs.Counts, want)
	}
	if hs.Count != 4 || hs.Sum != 5105 {
		t.Fatalf("hist count/sum = %d/%g, want 4/5105", hs.Count, hs.Sum)
	}
	// Snapshot is a copy: later mutation must not leak in.
	h.Observe(1)
	if s.Histograms["session.instructions"].Count != 4 {
		t.Fatal("snapshot aliases live histogram")
	}
}

func TestMergeOrderIndependent(t *testing.T) {
	mk := func(seedVals ...uint64) Snapshot {
		r := New()
		for i, v := range seedVals {
			r.Counter("c").Add(v)
			r.Gauge("g").Set(float64(v))
			r.Histogram("h", []float64{2, 8}).Observe(float64(i))
		}
		return r.Snapshot()
	}
	a, b, c := mk(1, 2), mk(10), mk(100, 200, 300)
	ab := a.Merge(b).Merge(c)
	ba := c.Merge(a.Merge(b))
	cb := b.Merge(c).Merge(a)
	ja, _ := json.Marshal(ab)
	jb, _ := json.Marshal(ba)
	jc, _ := json.Marshal(cb)
	if string(ja) != string(jb) || string(ja) != string(jc) {
		t.Fatalf("merge not order-independent:\n%s\n%s\n%s", ja, jb, jc)
	}
	if ab.Counters["c"] != 613 {
		t.Fatalf("merged counter = %d, want 613", ab.Counters["c"])
	}
}

func TestMergeMismatchedBoundsKeepsTotals(t *testing.T) {
	ra, rb := New(), New()
	ra.Histogram("h", []float64{1}).Observe(0.5)
	rb.Histogram("h", []float64{1, 2}).Observe(1.5)
	m := ra.Snapshot().Merge(rb.Snapshot())
	h := m.Histograms["h"]
	if h.Count != 2 || h.Sum != 2 {
		t.Fatalf("mismatched-bounds merge lost totals: count=%d sum=%g", h.Count, h.Sum)
	}
	if len(h.Bounds) != 1 {
		t.Fatalf("merge should keep receiver bounds, got %v", h.Bounds)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := New()
		// Insert in randomized order; JSON must come out identical.
		names := []string{"z.last", "a.first", "m.middle", "cpu.loads", "cpu.stores"}
		rand.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		for i, n := range names {
			r.Counter(n).Add(uint64(len(n) * (i + 1)))
		}
		for _, n := range names {
			r.Counter(n) // re-get must not reset
		}
		s := r.Snapshot()
		// normalize values (shuffle changed them); keys are the point
		for k := range s.Counters {
			s.Counters[k] = uint64(len(k))
		}
		return s
	}
	a, _ := json.Marshal(build())
	b, _ := json.Marshal(build())
	if string(a) != string(b) {
		t.Fatalf("snapshot JSON nondeterministic:\n%s\n%s", a, b)
	}
}

func TestLabeled(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Labeled("x"), "x"},
		{Labeled("x", "a", "1"), `x{a="1"}`},
		{Labeled("x", "b", "2", "a", "1"), `x{a="1",b="2"}`},
		{Labeled("x", "a", "1", "b", "2"), `x{a="1",b="2"}`},
		{Labeled("x", "a", `he said "hi"\`), `x{a="he said \"hi\"\\"}`},
		{Labeled("x", "odd"), `x{odd=""}`},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("Labeled = %q, want %q", c.got, c.want)
		}
	}
	// Round-trip through splitLabels.
	base, labels := splitLabels(Labeled("serve.sessions", "tenant", "t1", "kind", "run"))
	if base != "serve.sessions" || labels != `kind="run",tenant="t1"` {
		t.Fatalf("splitLabels = %q, %q", base, labels)
	}
	if b, l := splitLabels("plain.name"); b != "plain.name" || l != "" {
		t.Fatalf("splitLabels(plain) = %q, %q", b, l)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("cpu.instructions").Add(42)
	r.Counter(Labeled("serve.sessions", "tenant", "t1")).Add(3)
	r.Counter(Labeled("serve.sessions", "tenant", "t2")).Add(5)
	r.Gauge("mem.resident_bytes").Set(4096)
	h := r.Histogram(Labeled("serve.queue_wait_seconds", "tenant", "t1"), []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(1)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE cpu_instructions counter
cpu_instructions 42
# TYPE mem_resident_bytes gauge
mem_resident_bytes 4096
# TYPE serve_queue_wait_seconds histogram
serve_queue_wait_seconds_bucket{tenant="t1",le="+Inf"} 3
serve_queue_wait_seconds_bucket{tenant="t1",le="0.01"} 1
serve_queue_wait_seconds_bucket{tenant="t1",le="0.1"} 2
serve_queue_wait_seconds_count{tenant="t1"} 3
serve_queue_wait_seconds_sum{tenant="t1"} 1.055
# TYPE serve_sessions counter
serve_sessions{tenant="t1"} 3
serve_sessions{tenant="t2"} 5
`
	if sb.String() != want {
		t.Fatalf("WritePrometheus:\n%s\nwant:\n%s", sb.String(), want)
	}
	// Exposition is a pure function of the snapshot.
	var sb2 strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != sb.String() {
		t.Fatal("WritePrometheus nondeterministic")
	}
}

func TestMergeHistogramEmptyVsPopulated(t *testing.T) {
	bounds := []float64{1, 10}
	mk := func(vals ...float64) Snapshot {
		r := New()
		h := r.Histogram("h", bounds)
		for _, v := range vals {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	empty, full := mk(), mk(0.5, 5, 50)
	for _, m := range []Snapshot{empty.Merge(full), full.Merge(empty)} {
		h := m.Histograms["h"]
		if h.Count != 3 || h.Sum != 55.5 {
			t.Fatalf("empty-vs-populated merge: count=%d sum=%g", h.Count, h.Sum)
		}
		if want := []uint64{1, 1, 1}; !reflect.DeepEqual(h.Counts, want) {
			t.Fatalf("merged counts = %v, want %v", h.Counts, want)
		}
	}
	// Merging with a snapshot that lacks the histogram entirely.
	none := New().Snapshot()
	if h := full.Merge(none).Histograms["h"]; h.Count != 3 {
		t.Fatalf("merge with missing histogram lost data: count=%d", h.Count)
	}
	if h := none.Merge(full).Histograms["h"]; h.Count != 3 {
		t.Fatalf("merge into empty snapshot lost data: count=%d", h.Count)
	}
}

func TestMergeHistogramBoundaryValues(t *testing.T) {
	// Observations landing exactly on bucket bounds must bucket the same
	// way on both sides of a merge (bounds are inclusive upper edges).
	bounds := []float64{1, 10, 100}
	ra, rb := New(), New()
	for _, v := range []float64{1, 10, 100} {
		ra.Histogram("h", bounds).Observe(v)
	}
	for _, v := range []float64{1, 10, 100, 101} {
		rb.Histogram("h", bounds).Observe(v)
	}
	m := ra.Snapshot().Merge(rb.Snapshot())
	h := m.Histograms["h"]
	if want := []uint64{2, 2, 2, 1}; !reflect.DeepEqual(h.Counts, want) {
		t.Fatalf("boundary merge counts = %v, want %v", h.Counts, want)
	}
	if h.Count != 7 || h.Sum != 323 {
		t.Fatalf("boundary merge count/sum = %d/%g", h.Count, h.Sum)
	}
}

func TestMergeHistogramShuffledWorkerOrder(t *testing.T) {
	// Simulate N workers each producing a shard snapshot; folding them in
	// any order must give byte-identical JSON — the property the campaign
	// layer relies on for parallel == sequential determinism.
	bounds := []float64{2, 8, 32}
	shards := make([]Snapshot, 6)
	for i := range shards {
		r := New()
		h := r.Histogram("session.ns", bounds)
		for j := 0; j <= i; j++ {
			h.Observe(float64(i*7+j) / 2)
		}
		r.Counter("c").Add(uint64(i))
		shards[i] = r.Snapshot()
	}
	fold := func(order []int) string {
		acc := New().Snapshot()
		for _, i := range order {
			acc = acc.Merge(shards[i])
		}
		j, _ := json.Marshal(acc)
		return string(j)
	}
	base := fold([]int{0, 1, 2, 3, 4, 5})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		order := rng.Perm(len(shards))
		if got := fold(order); got != base {
			t.Fatalf("merge order %v changed result:\n%s\nwant:\n%s", order, got, base)
		}
	}
}

func TestWriteText(t *testing.T) {
	r := New()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("g.val").Set(1.5)
	r.Histogram("h", []float64{10}).Observe(3)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a.count 1\nb.count 2\ng.val 1.5\nh{le=10} 1\nh{le=+Inf} 0\nh_sum 3\nh_count 1\n"
	if sb.String() != want {
		t.Fatalf("WriteText:\n%q\nwant:\n%q", sb.String(), want)
	}
}

func TestAddLabelsAndRelabel(t *testing.T) {
	// Bare key gains labels; labeled key merges sorted; duplicate key
	// overwrites.
	if got := AddLabels("cpu.instructions", "tenant", "t1"); got != `cpu.instructions{tenant="t1"}` {
		t.Errorf("bare AddLabels = %q", got)
	}
	got := AddLabels(Labeled("sb.deopts_by_reason", "reason", "probe"), "tenant", "t1", "kind", "run")
	if got != `sb.deopts_by_reason{kind="run",reason="probe",tenant="t1"}` {
		t.Errorf("merged AddLabels = %q", got)
	}
	if got := AddLabels(`x{a="1"}`, "a", "2"); got != `x{a="2"}` {
		t.Errorf("overwrite AddLabels = %q", got)
	}
	// Commas and quotes inside an existing label value survive the merge.
	key := Labeled("x", "msg", `a,"b`)
	if got := AddLabels(key, "t", "1"); got != `x{msg="a,\"b",t="1"}` {
		t.Errorf("quoted-value AddLabels = %q", got)
	}

	r := New()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1.5)
	r.Histogram("h", []float64{10}).Observe(4)
	s := r.Snapshot().Relabel("tenant", "t1")
	if s.Counters[`c{tenant="t1"}`] != 3 {
		t.Errorf("relabel counters = %v", s.Counters)
	}
	if s.Gauges[`g{tenant="t1"}`] != 1.5 {
		t.Errorf("relabel gauges = %v", s.Gauges)
	}
	h := s.Histograms[`h{tenant="t1"}`]
	if h.Count != 1 || h.Sum != 4 {
		t.Errorf("relabel histogram = %+v", h)
	}
	// Relabeled snapshots still merge value-wise.
	m := s.Merge(r.Snapshot().Relabel("tenant", "t1"))
	if m.Counters[`c{tenant="t1"}`] != 6 {
		t.Errorf("merge after relabel = %v", m.Counters)
	}
}

// TestAddLeavesArgument: an accumulator folds in place but never takes
// its argument's maps or bucket slices, so folding more into it later
// leaves every earlier argument as it was.
func TestAddLeavesArgument(t *testing.T) {
	mk := func() Snapshot {
		r := New()
		r.Counter("c").Add(1)
		r.Gauge("g").Set(2)
		r.Histogram("h", []float64{10}).Observe(4)
		return r.Snapshot()
	}
	first, want := mk(), mk()
	var acc Snapshot
	acc.Add(first)
	acc.Add(mk())
	acc.Add(mk())
	if !reflect.DeepEqual(first, want) {
		t.Errorf("Add changed its argument: %+v, want %+v", first, want)
	}
	if acc.Counters["c"] != 3 || acc.Gauges["g"] != 6 {
		t.Errorf("accumulated %v %v", acc.Counters, acc.Gauges)
	}
	if h := acc.Histograms["h"]; h.Count != 3 || h.Sum != 12 || !reflect.DeepEqual(h.Counts, []uint64{3, 0}) {
		t.Errorf("accumulated histogram %+v", h)
	}
	// Relabel is the same fold through a key map: colliding keys sum.
	s := Snapshot{Counters: map[string]uint64{`c{t="a"}`: 1, "c": 2}, Gauges: map[string]float64{`g{t="a"}`: 1, "g": 2}}
	r := s.Relabel("t", "a")
	if r.Counters[`c{t="a"}`] != 3 || r.Gauges[`g{t="a"}`] != 3 || len(r.Counters) != 1 || len(r.Gauges) != 1 {
		t.Errorf("relabel with collisions = %v %v", r.Counters, r.Gauges)
	}
}
