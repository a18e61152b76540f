package cpu

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/taint"
)

func mkEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Kind: EvSyscall, Instrs: uint64(i), PC: uint32(0x1000 + 4*i)}
	}
	return evs
}

func TestEventSinkRingWrap(t *testing.T) {
	s := NewEventSink(4)
	for _, e := range mkEvents(10) {
		s.Emit(e)
	}
	if got := s.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
	if got := s.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	evs := s.Events()
	if len(evs) != 4 {
		t.Fatalf("kept %d events, want 4", len(evs))
	}
	// Oldest-first: the ring kept the most recent four (instrs 6..9).
	for i, e := range evs {
		if want := uint64(6 + i); e.Instrs != want {
			t.Errorf("event %d: instrs %d, want %d (not oldest-first?)", i, e.Instrs, want)
		}
	}
}

func TestEventSinkPartialFill(t *testing.T) {
	s := NewEventSink(8)
	for _, e := range mkEvents(3) {
		s.Emit(e)
	}
	if got := s.Dropped(); got != 0 {
		t.Errorf("Dropped = %d, want 0 before wrap", got)
	}
	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("kept %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Instrs != uint64(i) {
			t.Errorf("event %d: instrs %d, want %d", i, e.Instrs, i)
		}
	}
}

func TestEventSinkStreamOnly(t *testing.T) {
	s := NewEventSink(0)
	var seen []uint64
	s.Stream(func(e Event) { seen = append(seen, e.Instrs) })
	for _, e := range mkEvents(5) {
		s.Emit(e)
	}
	if len(s.Events()) != 0 {
		t.Error("stream-only sink kept ring events")
	}
	if s.Total() != 5 || s.Dropped() != 0 {
		t.Errorf("Total=%d Dropped=%d, want 5/0", s.Total(), s.Dropped())
	}
	if len(seen) != 5 {
		t.Fatalf("stream saw %d events, want 5", len(seen))
	}
	for i, got := range seen {
		if got != uint64(i) {
			t.Errorf("stream event %d: instrs %d, want %d", i, got, i)
		}
	}
}

// TestEventSinkEnableZeroStreamOnly: EnableEvents reads its capacity as
// NewEventSink does, so 0 attaches a stream-only sink. A running machine
// streams every event it emits, and the sink keeps and drops none.
func TestEventSinkEnableZeroStreamOnly(t *testing.T) {
	c, _ := bootTrace(t)
	s := c.EnableEvents(0)
	if again := c.EnableEvents(DefaultEventCap); again != s {
		t.Fatal("EnableEvents replaced an attached sink")
	}
	var kinds []EventKind
	s.Stream(func(e Event) { kinds = append(kinds, e.Kind) })
	c.NoteSnapshot()
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != EvSnapshot || kinds[1] != EvSyscall {
		t.Fatalf("stream saw %v, want [snapshot syscall]", kinds)
	}
	if got := s.Total(); got != uint64(len(kinds)) {
		t.Errorf("Total = %d, want %d", got, len(kinds))
	}
	if evs := s.Events(); len(evs) != 0 {
		t.Errorf("stream-only sink kept %d ring events", len(evs))
	}
	if got := s.Dropped(); got != 0 {
		t.Errorf("Dropped = %d, want 0 without a ring", got)
	}
}

// TestEventSinkStreamSeesOverwritten: stream subscribers observe every
// emission, including those the ring later overwrites.
func TestEventSinkStreamSeesOverwritten(t *testing.T) {
	s := NewEventSink(2)
	n := 0
	s.Stream(func(Event) { n++ })
	for _, e := range mkEvents(7) {
		s.Emit(e)
	}
	if n != 7 {
		t.Errorf("stream saw %d events, want all 7", n)
	}
	if len(s.Events()) != 2 {
		t.Errorf("ring kept %d, want 2", len(s.Events()))
	}
}

func TestWriteEventsJSONLWire(t *testing.T) {
	evs := []Event{
		{Kind: EvTaintBirth, Instrs: 42, PC: 0x400100, Addr: 0x7fff0000,
			Reg: isa.RegT0, Value: 0x61616161, Taint: taint.Word, Label: 3},
		{Kind: EvSnapshot, Instrs: 99, PC: 0x400200},
	}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	for k, want := range map[string]any{
		"kind": "taint-birth", "instrs": float64(42),
		"pc": "0x00400100", "addr": "0x7fff0000",
		"reg": "$t0", "taint": "TTTT", "label": float64(3),
	} {
		if got := first[k]; got != want {
			t.Errorf("line 1 %s = %v, want %v", k, got, want)
		}
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	// Zero-value fields are omitted on the wire.
	for _, absent := range []string{"addr", "reg", "value", "taint", "label", "detail"} {
		if _, ok := second[absent]; ok {
			t.Errorf("line 2 carries %q, want omitted", absent)
		}
	}
	if second["kind"] != "snapshot" {
		t.Errorf("line 2 kind = %v", second["kind"])
	}
}

func TestStreamJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewEventSink(0)
	s.Stream(StreamJSONL(&buf))
	for _, e := range mkEvents(2) {
		s.Emit(e)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("streamed %d lines, want 2", len(lines))
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &m); err != nil {
		t.Fatalf("streamed line not JSON: %v", err)
	}
	if m["kind"] != "syscall" || m["instrs"] != float64(1) {
		t.Errorf("streamed line = %v", m)
	}
}
