package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Entry is one flight-recorder record. Seq, Kind, Name, and Attrs are
// deterministic; Volatile holds everything wall-clock- or engine-
// dependent (durations, engine-private counters) and is stripped by
// Normalize. Go's JSON encoder sorts map keys, so an entry's rendering
// is a pure function of its contents.
type Entry struct {
	Seq      uint64            `json:"seq"`
	Kind     string            `json:"kind"`
	Name     string            `json:"name,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Volatile map[string]any    `json:"volatile,omitempty"`
}

// MaxFlights bounds the flight records a campaign-level report retains
// in memory (the excess is counted, never silently lost).
const MaxFlights = 64

// FlightLedger is the flight-record store campaign-level reports embed:
// the first MaxFlights records kept in fold order, the rest counted.
// Only the dropped count is part of a report's JSON.
type FlightLedger struct {
	Flights        []*Flight `json:"-"`
	FlightsDropped int       `json:"flights_dropped,omitempty"`
}

// Keep retains f if the ledger has room and counts it as dropped
// otherwise; a nil f (a run that left no flight) is ignored. Callers fold
// in a deterministic order, so which records are kept does not depend on
// scheduling.
func (l *FlightLedger) Keep(f *Flight) {
	switch {
	case f == nil:
	case len(l.Flights) < MaxFlights:
		l.Flights = append(l.Flights, f)
	default:
		l.FlightsDropped++
	}
}

// WriteFlights writes every retained flight record as a JSONL artifact
// under dir, returning the paths written.
func (l *FlightLedger) WriteFlights(dir string) ([]string, error) {
	var paths []string
	for _, f := range l.Flights {
		p, err := f.WriteFile(dir)
		if err != nil {
			return paths, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// DefaultFlightCap is the ring capacity used when none is given: deep
// enough for a session's full span tree plus its containment, deopt,
// and coverage milestones, shallow enough to stay cheap always-on.
const DefaultFlightCap = 256

// Recorder is the always-on bounded flight recorder: a fixed ring of
// recent entries per session, overwriting oldest-first. Recording costs
// a map-free append; the artifact is only rendered when a session ends
// in an anomaly class, so the benign-path overhead is the ring write
// and nothing else. Like an EventSink it is single-session state —
// never shared across goroutines concurrently.
type Recorder struct {
	buf     []Entry
	seq     uint64
	dropped uint64
}

// NewRecorder returns a recorder keeping the last capacity entries
// (<= 0 selects DefaultFlightCap).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &Recorder{buf: make([]Entry, 0, capacity)}
}

// Note records one entry. attrs and volatile are retained, not copied —
// callers hand over ownership.
func (r *Recorder) Note(kind, name string, attrs map[string]string, volatile map[string]any) {
	if r == nil {
		return
	}
	e := Entry{Seq: r.seq, Kind: kind, Name: name, Attrs: attrs, Volatile: volatile}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[int(r.seq)%cap(r.buf)] = e
		r.dropped++
	}
	r.seq++
}

// AddSpans folds completed spans into the ring as "span" entries: the
// deterministic identity in Attrs, the measured duration in Volatile.
func (r *Recorder) AddSpans(recs []SpanRecord) {
	for _, sp := range recs {
		attrs := map[string]string{
			"id":   sp.ID,
			"name": sp.Name,
			"seq":  fmt.Sprintf("%d", sp.Seq),
		}
		if sp.Parent != "" {
			attrs["parent"] = sp.Parent
		}
		r.Note("span", sp.Name, attrs, map[string]any{"dur_ns": sp.DurNs})
	}
}

// Entries returns the ring's contents oldest-first.
func (r *Recorder) Entries() []Entry {
	if r == nil {
		return nil
	}
	if len(r.buf) < cap(r.buf) || r.seq <= uint64(len(r.buf)) {
		return append([]Entry(nil), r.buf...)
	}
	out := make([]Entry, 0, len(r.buf))
	start := int(r.seq) % cap(r.buf)
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// Dropped reports how many entries the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Anomaly reports whether a session outcome class warrants dumping the
// flight record. The set matches the fault taxonomy's anomalous
// classes; Benign and DetectedAlert runs leave no artifact.
func Anomaly(class string) bool {
	switch class {
	case "GuestCrash", "Timeout", "SilentTaintLoss", "SpuriousAlert":
		return true
	}
	return false
}

// Flight is one completed flight record: the anomaly's identity plus
// the recorder's timeline, renderable as a JSONL artifact.
type Flight struct {
	Name    string            `json:"name"`
	Class   string            `json:"class"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Dropped uint64            `json:"dropped,omitempty"`
	Entries []Entry           `json:"-"`
}

// Capture freezes the recorder into a flight record for an anomalous
// session. name becomes the artifact identity (and filename stem).
func (r *Recorder) Capture(name, class string, attrs map[string]string) *Flight {
	return &Flight{
		Name:    name,
		Class:   class,
		Attrs:   attrs,
		Dropped: r.Dropped(),
		Entries: r.Entries(),
	}
}

// Normalized returns a deep copy with every volatile field removed —
// the form the determinism tests byte-compare across engines and
// worker counts.
func (f *Flight) Normalized() *Flight {
	if f == nil {
		return nil
	}
	out := &Flight{Name: f.Name, Class: f.Class, Dropped: f.Dropped}
	if f.Attrs != nil {
		out.Attrs = make(map[string]string, len(f.Attrs))
		for k, v := range f.Attrs {
			out.Attrs[k] = v
		}
	}
	out.Entries = make([]Entry, len(f.Entries))
	for i, e := range f.Entries {
		e.Volatile = nil
		out.Entries[i] = e
	}
	return out
}

// WriteJSONL renders the flight as a JSONL document: one header line
// (the Flight metadata) followed by one line per entry.
func (f *Flight) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(f); err != nil {
		return err
	}
	for _, e := range f.Entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the flight as <dir>/<name>.jsonl, creating dir if
// needed. It returns the artifact path.
func (f *Flight) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, f.Name+".jsonl")
	out, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := f.WriteJSONL(out); err != nil {
		out.Close()
		return "", err
	}
	return path, out.Close()
}
