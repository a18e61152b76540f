package cpu

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/prov"
	"repro/internal/taint"
)

// EventKind classifies a structured trace event.
type EventKind uint8

// Event kinds. The taint lifecycle events (EvInput, EvTaintBirth,
// EvPointerTaint) require provenance to be enabled — they carry labels;
// the rest fire whenever an event sink is attached.
const (
	// EvInstr is one retired instruction, emitted only while the text
	// tracer is active (SetTracer); Detail carries the rendered line.
	EvInstr EventKind = iota
	// EvInput marks an external input delivery: a taint source acquired a
	// fresh origin label (Addr/Label; Detail renders the origin).
	EvInput
	// EvTaintBirth marks a register acquiring taint from memory: a load
	// whose value was tainted (Reg, Addr, Label).
	EvTaintBirth
	// EvPointerTaint marks Table 1 propagation producing a tainted
	// result: the value in Reg now derives from tainted inputs (Label is
	// the merged label).
	EvPointerTaint
	// EvDerefCheck marks the dereference detector consulting a tainted
	// address or jump target — the moment the paper's Section 4.3 checks
	// run with a non-clean operand, whether or not they fire.
	EvDerefCheck
	// EvAlert marks a detector firing; the run ends with a SecurityAlert.
	EvAlert
	// EvSyscall marks a system-call trap (Value is the syscall number).
	EvSyscall
	// EvSnapshot marks a copy-on-write snapshot being taken of this
	// machine (campaign forks replay from here).
	EvSnapshot
)

// String returns the kind's wire name.
func (k EventKind) String() string {
	switch k {
	case EvInstr:
		return "instr"
	case EvInput:
		return "input"
	case EvTaintBirth:
		return "taint-birth"
	case EvPointerTaint:
		return "pointer-taint"
	case EvDerefCheck:
		return "deref-check"
	case EvAlert:
		return "alert"
	case EvSyscall:
		return "syscall"
	case EvSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one structured trace record. Fields beyond Kind/Instrs/PC are
// populated per kind; zero values mean "not applicable".
type Event struct {
	Kind   EventKind
	Instrs uint64 // instructions retired before the event
	PC     uint32
	Addr   uint32 // memory address, for input/taint-birth events
	Reg    isa.Register
	Value  uint32
	Taint  taint.Vec
	Label  prov.Label
	Detail string
}

// EventSink collects events into a fixed-size ring buffer and optionally
// streams each one to subscribers. When the ring is full the oldest
// event is overwritten — recent history wins, and Dropped reports how
// many were lost. A capacity of zero keeps no ring (stream-only).
//
// The sink is single-machine state, as unsynchronized as the register
// file: campaign forks get their own machines and never share one.
type EventSink struct {
	buf     []Event
	total   uint64
	streams []func(Event)
}

// DefaultEventCap is the ring capacity of a sink whose events are
// exported after the run (core.Config.TraceEvents, the text tracer).
const DefaultEventCap = 4096

// NewEventSink returns a sink with the given ring capacity (<= 0 means
// no ring: events only reach stream subscribers).
func NewEventSink(capacity int) *EventSink {
	s := &EventSink{}
	if capacity > 0 {
		s.buf = make([]Event, 0, capacity)
	}
	return s
}

// Stream registers fn to receive every event as it is emitted, before it
// enters the ring. Subscribers run on the emitting goroutine — keep them
// cheap, and never let them touch the machine.
func (s *EventSink) Stream(fn func(Event)) { s.streams = append(s.streams, fn) }

// Emit records one event.
func (s *EventSink) Emit(e Event) {
	for _, fn := range s.streams {
		fn(e)
	}
	if cap(s.buf) > 0 {
		if len(s.buf) < cap(s.buf) {
			s.buf = append(s.buf, e)
		} else {
			s.buf[s.total%uint64(cap(s.buf))] = e
		}
	}
	s.total++
}

// Events returns the ring's contents oldest-first. The slice is freshly
// allocated; the ring keeps accumulating.
func (s *EventSink) Events() []Event {
	if cap(s.buf) == 0 || len(s.buf) < cap(s.buf) || s.total <= uint64(len(s.buf)) {
		return append([]Event(nil), s.buf...)
	}
	// Wrapped: the ring is full and s.total%cap is the oldest slot.
	out := make([]Event, 0, len(s.buf))
	start := s.total % uint64(cap(s.buf))
	out = append(out, s.buf[start:]...)
	out = append(out, s.buf[:start]...)
	return out
}

// Total reports how many events were emitted over the sink's lifetime.
func (s *EventSink) Total() uint64 { return s.total }

// Dropped reports how many emitted events the ring has overwritten.
func (s *EventSink) Dropped() uint64 {
	if cap(s.buf) == 0 || s.total <= uint64(cap(s.buf)) {
		return 0
	}
	return s.total - uint64(cap(s.buf))
}

// EnableEvents attaches an event sink with the given ring capacity, read
// as NewEventSink reads it (0 keeps no ring: events only reach stream
// subscribers), and returns it; if a sink is already attached it is
// returned unchanged. Emission adds one nil check to the paths that can
// produce events; with no sink attached the machine is untouched.
func (c *CPU) EnableEvents(capacity int) *EventSink {
	if c.events == nil {
		c.events = NewEventSink(capacity)
	}
	return c.events
}

// Events returns the attached event sink, or nil.
func (c *CPU) Events() *EventSink { return c.events }

// NoteSnapshot records an EvSnapshot event; the snapshot layer calls it
// when this machine is frozen as a fork origin.
func (c *CPU) NoteSnapshot() {
	if c.events == nil {
		return
	}
	c.events.Emit(Event{Kind: EvSnapshot, Instrs: c.stats.Instructions, PC: c.pc})
}

// emitSyscall records an EvSyscall event for the trap about to be
// handled; both engines call it with stats fully flushed.
func (c *CPU) emitSyscall() {
	c.events.Emit(Event{
		Kind:   EvSyscall,
		Instrs: c.stats.Instructions,
		PC:     c.pc,
		Reg:    isa.RegV0,
		Value:  c.regs[isa.RegV0],
	})
}

// eventJSON is the JSONL wire form of an Event.
type eventJSON struct {
	Kind   string `json:"kind"`
	Instrs uint64 `json:"instrs"`
	PC     string `json:"pc"`
	Addr   string `json:"addr,omitempty"`
	Reg    string `json:"reg,omitempty"`
	Value  string `json:"value,omitempty"`
	Taint  string `json:"taint,omitempty"`
	Label  uint32 `json:"label,omitempty"`
	Detail string `json:"detail,omitempty"`
}

func (e Event) wire() eventJSON {
	j := eventJSON{
		Kind:   e.Kind.String(),
		Instrs: e.Instrs,
		PC:     fmt.Sprintf("%#08x", e.PC),
		Label:  uint32(e.Label),
		Detail: e.Detail,
	}
	if e.Addr != 0 {
		j.Addr = fmt.Sprintf("%#08x", e.Addr)
	}
	if e.Reg != isa.RegZero {
		j.Reg = e.Reg.String()
		j.Value = fmt.Sprintf("%#x", e.Value)
	} else if e.Kind == EvSyscall {
		j.Value = fmt.Sprintf("%#x", e.Value)
	}
	if e.Taint != taint.None {
		j.Taint = e.Taint.String()
	}
	return j
}

// MarshalJSON renders the event in its JSONL wire form, so embedding an
// Event in any JSON document (the obs Chrome composer, flight records)
// matches the exported trace format exactly.
func (e Event) MarshalJSON() ([]byte, error) { return json.Marshal(e.wire()) }

// StreamJSONL returns a Stream subscriber that writes each event to w as
// one JSON line the moment it is emitted — the ptattack -trace hook.
// Encoding errors are swallowed (a broken pipe must not fault the guest);
// a caller that must report them wraps w to remember the first one.
func StreamJSONL(w io.Writer) func(Event) {
	enc := json.NewEncoder(w)
	return func(e Event) { _ = enc.Encode(e.wire()) }
}

// WriteEventsJSONL writes one JSON object per event, newline-delimited.
func WriteEventsJSONL(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range evs {
		if err := enc.Encode(e.wire()); err != nil {
			return err
		}
	}
	return nil
}
