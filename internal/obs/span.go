package obs

import (
	"sync"
	"time"
)

// hex16 renders v as a fixed-width 16-digit hex string without going
// through fmt (a span End is on every service span; reflection-based
// formatting dominates its cost otherwise).
func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// SpanRecord is one completed span. ID, Parent, Name, and Seq are
// deterministic (pure functions of the tracer seed and span topology);
// StartNs and DurNs are wall-clock measurements and therefore volatile —
// they ride along for the Chrome export and the metrics histograms but
// are stripped by Normalize before any determinism comparison.
type SpanRecord struct {
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Seq     uint64 `json:"seq"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// Tracer mints hierarchical spans for one session or one campaign run.
// Create one tracer per unit of work, seeded from that work's request
// seed: the root ID is SplitMix64(seed, 0) and every child ID is derived
// from (parent ID, name, per-tracer sequence), so the span tree a
// request produces is byte-identical at any worker count and under
// either engine — only the durations differ.
//
// The mutex exists because a session's spans start on the admission
// goroutine and finish on a worker; the lifecycle itself is sequential
// (handoff through the job channel), so there is never contention on a
// hot path.
type Tracer struct {
	mu    sync.Mutex
	root  uint64
	seq   uint64
	epoch time.Time
	recs  []SpanRecord

	// Observe, when set, receives every completed span's name and
	// duration in nanoseconds — the bridge into metrics histograms.
	// Called on the ending goroutine; keep it cheap.
	Observe func(name string, durNs float64)
}

// NewTracer returns a tracer whose IDs derive from seed.
func NewTracer(seed uint64) *Tracer {
	return &Tracer{root: SplitMix64(seed, 0), epoch: time.Now()}
}

// Span is an in-flight span; End completes it into the tracer's record
// list. The zero *Span is a valid no-op (Start on a nil tracer returns
// one), so call sites never need nil checks around disabled tracing.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	seq    uint64
	start  time.Time
}

// Start opens a span under parent (nil parent = child of the root).
// Start on a nil tracer returns a nil span; Span.End on a nil span is a
// no-op — the disabled path costs two nil checks and nothing else.
func (t *Tracer) Start(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	seq := t.seq
	t.seq++
	t.mu.Unlock()
	pid := t.root
	if parent != nil {
		pid = parent.id
	}
	return &Span{
		tr:     t,
		id:     deriveID(pid, name, seq),
		parent: pid,
		name:   name,
		seq:    seq,
		start:  time.Now(),
	}
}

// End completes the span, recording its monotonic duration. It returns
// the duration so call sites can reuse the measurement.
func (s *Span) End() time.Duration {
	if s == nil || s.tr == nil {
		return 0
	}
	d := time.Since(s.start)
	t := s.tr
	s.tr = nil // double-End is a no-op
	rec := SpanRecord{
		ID:      hex16(s.id),
		Name:    s.name,
		Seq:     s.seq,
		StartNs: s.start.Sub(t.epoch).Nanoseconds(),
		DurNs:   d.Nanoseconds(),
	}
	if s.parent != t.root {
		rec.Parent = hex16(s.parent)
	}
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
	if t.Observe != nil {
		t.Observe(s.name, float64(d.Nanoseconds()))
	}
	return d
}

// Records returns the completed spans in end order. On a nil tracer it
// returns nil. End order is deterministic for the sequential span
// lifecycles the service and campaigns run (each span ends before the
// next sibling starts).
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.recs...)
}
