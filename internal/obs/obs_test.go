package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cpu"
)

// runSpanTree drives one deterministic session-shaped span lifecycle.
func runSpanTree(seed uint64) *Tracer {
	tr := NewTracer(seed)
	admit := tr.Start(nil, "admit")
	admit.End()
	queue := tr.Start(nil, "queue")
	queue.End()
	run := tr.Start(nil, "run")
	fork := tr.Start(run, "snapshot-fork")
	fork.End()
	cls := tr.Start(run, "classify")
	cls.End()
	run.End()
	return tr
}

func TestSpanIDsDeterministic(t *testing.T) {
	a, b := runSpanTree(7).Records(), runSpanTree(7).Records()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("span counts: %d, %d, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Parent != b[i].Parent ||
			a[i].Name != b[i].Name || a[i].Seq != b[i].Seq {
			t.Fatalf("replay diverged at %d:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	// A different seed must mint a disjoint tree.
	c := runSpanTree(8).Records()
	if a[0].ID == c[0].ID {
		t.Fatal("different seeds produced the same root-child ID")
	}
	// Children carry their parent's ID; top-level spans carry none.
	byID := map[string]SpanRecord{}
	for _, sp := range a {
		byID[sp.ID] = sp
	}
	for _, sp := range a {
		switch sp.Name {
		case "snapshot-fork", "classify":
			if byID[sp.Parent].Name != "run" {
				t.Errorf("%s parent = %q, want the run span", sp.Name, sp.Parent)
			}
		default:
			if sp.Parent != "" {
				t.Errorf("%s has parent %q, want root", sp.Name, sp.Parent)
			}
		}
	}
}

func TestSpanNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(nil, "anything")
	if sp.End() != 0 {
		t.Fatal("nil-tracer span measured a duration")
	}
	if tr.Records() != nil {
		t.Fatal("nil tracer has records")
	}
	// Double End is a no-op.
	tr2 := NewTracer(1)
	s := tr2.Start(nil, "x")
	s.End()
	s.End()
	if n := len(tr2.Records()); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

func TestSpanObserveHook(t *testing.T) {
	tr := NewTracer(3)
	var names []string
	tr.Observe = func(name string, durNs float64) {
		if durNs < 0 {
			t.Errorf("negative duration for %s", name)
		}
		names = append(names, name)
	}
	tr.Start(nil, "a").End()
	tr.Start(nil, "b").End()
	if strings.Join(names, ",") != "a,b" {
		t.Fatalf("observe saw %v", names)
	}
}

func TestRecorderRingAndNormalize(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Note("evt", "e", map[string]string{"i": string(rune('0' + i))},
			map[string]any{"ns": i * 100})
	}
	es := r.Entries()
	if len(es) != 4 {
		t.Fatalf("ring kept %d entries, want 4", len(es))
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	// Oldest-first: seqs 2..5 survive.
	for i, e := range es {
		if e.Seq != uint64(i+2) {
			t.Fatalf("entry %d seq = %d, want %d", i, e.Seq, i+2)
		}
	}
	f := r.Capture("t-0001", "Timeout", map[string]string{"target": "x"})
	n := f.Normalized()
	for _, e := range n.Entries {
		if e.Volatile != nil {
			t.Fatal("Normalized kept volatile fields")
		}
	}
	// Normalization must not mutate the original.
	if f.Entries[0].Volatile == nil {
		t.Fatal("Normalized mutated the source flight")
	}
}

func TestFlightJSONLDeterministic(t *testing.T) {
	build := func() *Flight {
		r := NewRecorder(8)
		tr := runSpanTree(11)
		r.AddSpans(tr.Records())
		r.Note("outcome", "Timeout", map[string]string{"evidence": "budget"}, nil)
		return r.Capture("run-0003", "Timeout", map[string]string{"seed": "11"})
	}
	var a, b bytes.Buffer
	if err := build().Normalized().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Normalized().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("normalized flights differ:\n%s\n%s", a.String(), b.String())
	}
	// Header line + 6 entries, each valid JSON.
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("flight has %d lines, want 7", len(lines))
	}
	var hdr Flight
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Name != "run-0003" || hdr.Class != "Timeout" {
		t.Fatalf("header = %+v", hdr)
	}
}

func TestFlightWriteFile(t *testing.T) {
	r := NewRecorder(4)
	r.Note("outcome", "GuestCrash", nil, nil)
	f := r.Capture("crash-0001", "GuestCrash", nil)
	path, err := f.WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "crash-0001.jsonl") {
		t.Fatalf("artifact path = %q", path)
	}
}

func TestAnomalyClassSet(t *testing.T) {
	for _, c := range []string{"GuestCrash", "Timeout", "SilentTaintLoss", "SpuriousAlert"} {
		if !Anomaly(c) {
			t.Errorf("Anomaly(%s) = false", c)
		}
	}
	for _, c := range []string{"Benign", "DetectedAlert", ""} {
		if Anomaly(c) {
			t.Errorf("Anomaly(%s) = true", c)
		}
	}
}

func TestComposeChromeNestsGuestEvents(t *testing.T) {
	tr := NewTracer(5)
	run := tr.Start(nil, "run")
	run.End()
	checkGuestEventsNested(t, tr.Records())
}

// TestComposeChromeMaxEventAtSpanEnd pins span timings for which scaling
// by n/max after the multiply rounds the max-instruction event one ulp
// past the guest span's end.
func TestComposeChromeMaxEventAtSpanEnd(t *testing.T) {
	checkGuestEventsNested(t, []SpanRecord{
		{ID: "1", Name: "run", Seq: 1, StartNs: 49165275, DurNs: 13274636},
	})
}

// checkGuestEventsNested composes two guest events into spans, whose
// first record must be the "run" span, and checks that both land inside
// it with the max-instruction event exactly at its end.
func checkGuestEventsNested(t *testing.T, spans []SpanRecord) {
	t.Helper()
	evs := []cpu.Event{
		{Kind: cpu.EvSyscall, Instrs: 10, PC: 0x1000},
		{Kind: cpu.EvAlert, Instrs: 20, PC: 0x1004},
	}
	var buf bytes.Buffer
	if err := ComposeChrome(&buf, spans, "run", evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("trace has %d events, want 3", len(doc.TraceEvents))
	}
	span := doc.TraceEvents[0]
	if span.Phase != "X" || span.Name != "run" {
		t.Fatalf("first event = %+v, want the run span", span)
	}
	for _, ev := range doc.TraceEvents[1:] {
		if ev.Phase != "i" {
			t.Fatalf("guest event phase = %q", ev.Phase)
		}
		if ev.TS < span.TS || ev.TS > span.TS+span.Dur {
			t.Errorf("guest event ts %g outside run span [%g, %g]",
				ev.TS, span.TS, span.TS+span.Dur)
		}
	}
	// The alert (instr 20 = max) must land at the span's end.
	last := doc.TraceEvents[2]
	if last.TS != span.TS+span.Dur {
		t.Errorf("max-instr event ts %g, want span end %g", last.TS, span.TS+span.Dur)
	}
}
