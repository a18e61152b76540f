// Package metrics is a small stdlib-only metrics layer for the simulator:
// named counters, gauges, and fixed-bucket histograms collected into a
// Registry, frozen into a Snapshot for exposition (sorted text, JSON or
// Prometheus), and folded deterministically across campaign workers.
//
// The hot interpreter loops keep their raw struct counters (cpu.Stats,
// mem's tainted-store/COW counts, kernel.InputStats) — a map lookup per
// retired instruction would wreck the fast path — and core.Machine.Metrics
// names them, filling a Snapshot straight from the subsystems' accessors.
// The Registry serves the service's live counters and histograms.
// Determinism falls out of the arithmetic: Snapshot holds plain maps
// keyed by name, Add sums value-wise in place, and summation is
// order-independent, so a parallel campaign's folded snapshot is
// byte-identical to a sequential one's.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Labeled encodes labels into a metric name: Labeled("x", "a", "1", "b",
// "2") returns `x{a="1",b="2"}`. Labels are sorted by key so the same
// label set always produces the same registry key, which is what keeps
// Snapshot.Merge and the JSON exposition deterministic. WritePrometheus
// decodes the embedded labels back into real Prometheus labels; the JSON
// and text expositions carry them verbatim inside the flat name.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		kv = append(kv, "")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// splitLabels splits a registry key produced by Labeled into its base
// name and the raw label body (without braces). A plain name returns an
// empty label body.
func splitLabels(key string) (base, labels string) {
	i := strings.IndexByte(key, '{')
	if i < 0 || !strings.HasSuffix(key, "}") {
		return key, ""
	}
	return key[:i], key[i+1 : len(key)-1]
}

// splitLabelFrags splits a raw label body into its `k="v"` fragments,
// respecting commas inside quoted values.
func splitLabelFrags(labels string) []string {
	if labels == "" {
		return nil
	}
	var out []string
	start, inq := 0, false
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '\\':
			if inq {
				i++
			}
		case '"':
			inq = !inq
		case ',':
			if !inq {
				out = append(out, labels[start:i])
				start = i + 1
			}
		}
	}
	return append(out, labels[start:])
}

// AddLabels merges extra label pairs into a registry key that may already
// carry labels from Labeled. The combined label set stays sorted by key;
// on a duplicate key the new value wins.
func AddLabels(key string, kv ...string) string {
	if len(kv) == 0 {
		return key
	}
	base, labels := splitLabels(key)
	frags := splitLabelFrags(labels)
	byKey := make(map[string]string, len(frags)+len(kv)/2)
	keys := make([]string, 0, len(frags)+len(kv)/2)
	add := func(k, frag string) {
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = frag
	}
	for _, f := range frags {
		k := f
		if i := strings.IndexByte(f, '='); i >= 0 {
			k = f[:i]
		}
		add(k, f)
	}
	if len(kv)%2 != 0 {
		kv = append(kv, "")
	}
	for i := 0; i < len(kv); i += 2 {
		add(kv[i], kv[i]+`="`+escapeLabel(kv[i+1])+`"`)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(byKey[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Relabel returns a copy of the snapshot with the given label pairs
// merged into every key — how a service scopes one session's machine
// metrics by tenant and engine before folding them into a fleet view.
// Keys that collide after relabeling sum, as in Add.
func (s Snapshot) Relabel(kv ...string) Snapshot {
	var out Snapshot
	out.add(s, func(k string) string { return AddLabels(k, kv...) })
	return out
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a point-in-time float64 measurement.
type Gauge struct{ v float64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram counts observations into fixed upper-bound buckets (plus an
// implicit +Inf bucket) and tracks the sum and count. Bounds must be
// sorted ascending and are fixed at creation so histograms with the same
// name always merge bucket-for-bucket.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	n      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
}

// Registry is a named collection of metrics. Create-or-get accessors are
// mutex-guarded so campaign workers may fill disjoint registries while a
// shared one is snapshotted; the hot loops never touch it.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero if absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterValue reads the named counter without creating it: 0 when it
// was never created.
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c.v
	}
	return 0
}

// Gauge returns the named gauge, creating it at zero if absent.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// sorted upper bounds if absent. Bounds of an existing histogram win.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is a frozen histogram: parallel Bounds/Counts slices
// (Counts has one extra +Inf bucket), plus Sum and Count.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot is a frozen, merge-able view of a registry. JSON encoding is
// deterministic (Go serializes map keys sorted).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for k, c := range r.counters {
			s.Counters[k] = c.v
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for k, g := range r.gauges {
			s.Gauges[k] = g.v
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for k, h := range r.histograms {
			s.Histograms[k] = HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: append([]uint64(nil), h.counts...),
				Sum:    h.sum,
				Count:  h.n,
			}
		}
	}
	return s
}

// Merge returns the value-wise sum of s and o as a new snapshot that
// shares nothing with either. Merge is commutative and associative,
// which is what makes a parallel campaign's aggregate independent of
// worker scheduling.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	var out Snapshot
	out.Add(s)
	out.Add(o)
	return out
}

// Add folds o into s in place, value-wise: counters and gauges sum, and
// histograms with matching bounds merge bucket-for-bucket (mismatched
// bounds keep s's buckets and fold o into sum/count only, so totals stay
// honest). s never takes o's maps or slices, so o is left as it was
// whatever later folds do to s; an accumulator must start from the zero
// Snapshot, not from a copy of a snapshot it does not own.
func (s *Snapshot) Add(o Snapshot) { s.add(o, nil) }

// add is Add with every key of o passed through key first (nil keeps
// keys as they are).
func (s *Snapshot) add(o Snapshot, key func(string) string) {
	if key == nil {
		key = func(k string) string { return k }
	}
	if len(o.Counters) > 0 {
		if s.Counters == nil {
			s.Counters = make(map[string]uint64, len(o.Counters))
		}
		for k, v := range o.Counters {
			s.Counters[key(k)] += v
		}
	}
	if len(o.Gauges) > 0 {
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64, len(o.Gauges))
		}
		for k, v := range o.Gauges {
			s.Gauges[key(k)] += v
		}
	}
	if len(o.Histograms) > 0 {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnapshot, len(o.Histograms))
		}
		for k, h := range o.Histograms {
			k = key(k)
			base, ok := s.Histograms[k]
			if !ok {
				s.Histograms[k] = HistogramSnapshot{
					Bounds: append([]float64(nil), h.Bounds...),
					Counts: append([]uint64(nil), h.Counts...),
					Sum:    h.Sum,
					Count:  h.Count,
				}
				continue
			}
			base.Sum += h.Sum
			base.Count += h.Count
			if boundsEqual(base.Bounds, h.Bounds) {
				for i := range base.Counts {
					base.Counts[i] += h.Counts[i]
				}
			}
			s.Histograms[k] = base
		}
	}
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteText renders the snapshot as sorted "name value" lines — the text
// exposition format.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%s %g\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		for i, b := range h.Bounds {
			if _, err := fmt.Fprintf(w, "%s{le=%g} %d\n", k, b, h.Counts[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s{le=+Inf} %d\n%s_sum %g\n%s_count %d\n",
			k, h.Counts[len(h.Bounds)], k, h.Sum, k, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName sanitizes a metric base name into the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*. The registry convention uses dots as
// namespace separators; they become underscores.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promKey renders one sample's name part: the sanitized base plus any
// labels (the ones embedded by Labeled merged with extra, which must
// already be rendered as `k="v"` fragments).
func promKey(base, labels string, extra ...string) string {
	parts := make([]string, 0, 1+len(extra))
	if labels != "" {
		parts = append(parts, labels)
	}
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return base
	}
	return base + "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` header per metric family, dots in
// names folded to underscores, labels embedded via Labeled decoded into
// real label sets, and histograms converted to cumulative `_bucket`
// series with `le` labels plus `_sum`/`_count`. Output is sorted, so a
// given snapshot always renders byte-identically.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	// Group samples by sanitized family name so each family gets exactly
	// one TYPE header even when label sets split it across registry keys.
	type sample struct{ key, value string }
	families := make(map[string][]sample)
	types := make(map[string]string)
	add := func(famKind, key, value string) {
		base, labels := splitLabels(key)
		fam := promName(base)
		types[fam] = famKind
		families[fam] = append(families[fam], sample{promKey(fam, labels), value})
	}
	for k, v := range s.Counters {
		add("counter", k, fmt.Sprintf("%d", v))
	}
	for k, v := range s.Gauges {
		add("gauge", k, fmt.Sprintf("%g", v))
	}
	for k, h := range s.Histograms {
		base, labels := splitLabels(k)
		fam := promName(base)
		types[fam] = "histogram"
		var cum uint64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			families[fam] = append(families[fam], sample{
				promKey(fam+"_bucket", labels, fmt.Sprintf(`le="%g"`, b)),
				fmt.Sprintf("%d", cum),
			})
		}
		families[fam] = append(families[fam],
			sample{promKey(fam+"_bucket", labels, `le="+Inf"`), fmt.Sprintf("%d", h.Count)},
			sample{promKey(fam+"_sum", labels), fmt.Sprintf("%g", h.Sum)},
			sample{promKey(fam+"_count", labels), fmt.Sprintf("%d", h.Count)},
		)
	}
	names := make([]string, 0, len(families))
	for fam := range families {
		names = append(names, fam)
	}
	sort.Strings(names)
	for _, fam := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, types[fam]); err != nil {
			return err
		}
		samples := families[fam]
		sort.Slice(samples, func(i, j int) bool { return samples[i].key < samples[j].key })
		for _, sm := range samples {
			if _, err := fmt.Fprintf(w, "%s %s\n", sm.key, sm.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
