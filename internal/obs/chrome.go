package obs

import (
	"encoding/json"
	"io"

	"repro/internal/cpu"
)

// chromeSpan is a duration ("X") event of the Chrome trace_event format.
type chromeSpan struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`  // microseconds
	Dur   float64           `json:"dur"` // microseconds
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeInstant is an instant ("i") event carrying a guest trace event.
type chromeInstant struct {
	Name  string          `json:"name"`
	Phase string          `json:"ph"`
	TS    float64         `json:"ts"`
	PID   int             `json:"pid"`
	TID   int             `json:"tid"`
	Scope string          `json:"s,omitempty"`
	Args  json.RawMessage `json:"args,omitempty"`
}

// ComposeChrome writes a Chrome trace_event document in which the
// harness-level spans appear as duration events and the guest's event
// stream nests inside the span named guestSpan: guest events carry
// retired-instruction timestamps, which are mapped linearly onto the
// guest span's wall-clock interval so chrome://tracing shows syscalls
// and taint births inside the run phase that produced them. Spans and
// events render on separate tids of one pid so the tracks stack.
func ComposeChrome(w io.Writer, spans []SpanRecord, guestSpan string, evs []cpu.Event) error {
	type doc struct {
		TraceEvents []any  `json:"traceEvents"`
		Unit        string `json:"displayTimeUnit"`
	}
	d := doc{Unit: "ns", TraceEvents: make([]any, 0, len(spans)+len(evs))}

	var guestStart, guestDur float64 // microseconds
	haveGuest := false
	for _, sp := range spans {
		ts := float64(sp.StartNs) / 1e3
		dur := float64(sp.DurNs) / 1e3
		args := map[string]string{"id": sp.ID, "seq": jsonUint(sp.Seq)}
		if sp.Parent != "" {
			args["parent"] = sp.Parent
		}
		d.TraceEvents = append(d.TraceEvents, chromeSpan{
			Name: sp.Name, Phase: "X", TS: ts, Dur: dur, PID: 1, TID: 1, Args: args,
		})
		if sp.Name == guestSpan && !haveGuest {
			guestStart, guestDur, haveGuest = ts, dur, true
		}
	}

	if len(evs) > 0 {
		var maxInstr uint64 = 1
		for _, e := range evs {
			if e.Instrs > maxInstr {
				maxInstr = e.Instrs
			}
		}
		for _, e := range evs {
			ts := float64(e.Instrs)
			if haveGuest {
				// Linear map instruction-time onto the guest span's
				// wall-clock interval. The ratio comes first so the
				// max-instruction event lands exactly on the span's end
				// (guestDur*1 is exact; guestDur*n/n can round one ulp
				// past it).
				ts = guestStart + guestDur*(float64(e.Instrs)/float64(maxInstr))
			}
			args, err := json.Marshal(e)
			if err != nil {
				return err
			}
			d.TraceEvents = append(d.TraceEvents, chromeInstant{
				Name: e.Kind.String(), Phase: "i", TS: ts, PID: 1, TID: 2,
				Scope: "t", Args: args,
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
