// Package attack drives the paper's attack scenarios against the program
// corpus: it boots a victim program on the taint-tracking machine, plays
// the attacker over the simulated network / stdin / argv, and reports
// whether the detection policy fired, what the alert said, and — when the
// policy missed — whether the compromise actually landed. It is the engine
// behind the Section 5.1 evaluation (Fig. 2 detections, Table 2, and the
// §5.1.2 coverage matrix).
package attack

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/progs"
)

// Machine is one booted victim instance; core assembles it.
type Machine = core.Machine

// Options configures a victim boot. Attack drivers and Scenario.Boot take
// one too: they set the fields their attack needs (stdin, argv, a tighter
// budget) and keep the caller's values for the rest.
type Options = core.Config

// Snapshot is a frozen machine that campaigns fork sessions from.
type Snapshot = core.Snapshot

// Boot compiles and loads a corpus program under the given options, with
// the program's name as argv[0].
func Boot(p progs.Program, opts Options) (*Machine, error) {
	im, err := p.Build()
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", p.Name, err)
	}
	opts.ProgName = p.Name
	return core.BootImage(opts, im)
}

// FillStaticCacheMetrics fills nothing. Machines boot without static
// analysis, so there is no fact cache to report; the function remains
// only because the ptbench harness (bench/ptbench) still calls it, and
// goes when that harness stops.
func FillStaticCacheMetrics(*metrics.Registry) {}

// Outcome classifies one attack run.
type Outcome struct {
	// Detected is true when the policy raised a security alert.
	Detected bool
	// Alert holds the alert when Detected.
	Alert *cpu.SecurityAlert
	// Crashed is true when the victim died on a machine fault (a hijack
	// attempt that went off the rails rather than being detected).
	Crashed bool
	// Fault holds the fault when Crashed.
	Fault *cpu.Fault
	// Compromised is true when the attack's goal state was verified
	// (privilege escalated, policy bypassed, memory corrupted).
	Compromised bool
	// TimedOut is true when containment ended the run: the step-budget
	// watchdog tripped, the guest hit its resident-memory limit, or a
	// host panic was recovered at the machine boundary — a runaway or
	// wedged guest, not a verdict about the attack itself.
	TimedOut bool
	// Evidence describes the verified compromise or the alert.
	Evidence string
}

// Classify folds a terminal run error into an Outcome. It is the single
// decoder of the machine's error taxonomy: security alerts → Detected,
// architectural faults and recovered host panics → Crashed, containment
// trips (step budget, memory limit) → TimedOut.
func Classify(err error) Outcome {
	var out Outcome
	var alert *cpu.SecurityAlert
	var fault *cpu.Fault
	var budget *cpu.StepBudgetError
	var memLimit *mem.LimitError
	var guest *cpu.GuestFault
	switch {
	case errors.As(err, &alert):
		out.Detected = true
		out.Alert = alert
		out.Evidence = alert.Error()
	case errors.As(err, &fault):
		out.Crashed = true
		out.Fault = fault
		out.Evidence = fault.Error()
	case errors.As(err, &budget), errors.As(err, &memLimit):
		out.TimedOut = true
		out.Evidence = err.Error()
	case errors.As(err, &guest):
		out.Crashed = true
		out.Evidence = guest.Error()
	}
	return out
}

// String renders the outcome for experiment tables.
func (o Outcome) String() string {
	switch {
	case o.Detected:
		return "DETECTED: " + o.Evidence
	case o.Compromised:
		return "COMPROMISED: " + o.Evidence
	case o.Crashed:
		return "CRASHED: " + o.Evidence
	case o.TimedOut:
		return "TIMEOUT: " + o.Evidence
	default:
		return "no effect"
	}
}
