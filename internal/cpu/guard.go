package cpu

import (
	"fmt"

	"repro/internal/mem"
)

// StepBudgetError is the watchdog fault returned by Run/RunFast when the
// guest reaches its retired-instruction budget without halting, blocking,
// alerting, or faulting. It is the machine's defense against runaway
// guests (infinite loops, wedged protocol dialogues): a campaign fork that
// trips it is classified as a Timeout rather than stalling the host. The
// trip point is deterministic — Steps and PC are identical under the
// reference interpreter, the block fast path, and any fork of the same
// snapshot.
type StepBudgetError struct {
	PC    uint32
	Steps uint64 // instructions retired when the budget tripped
}

// Error implements the error interface.
func (e *StepBudgetError) Error() string {
	return fmt.Sprintf("machine fault at %#08x: instruction budget exhausted (%d retired)", e.PC, e.Steps)
}

// GuestFault is a host panic captured at the machine boundary: a malformed
// image, an out-of-range access in host-side machinery, or a library bug
// tickled by a fault-injection run. Run/RunFast recover it into an error
// so no guest — however corrupted — can take the host process down.
type GuestFault struct {
	PC     uint32
	Reason string
}

// Error implements the error interface.
func (e *GuestFault) Error() string {
	return fmt.Sprintf("guest fault at %#08x: recovered host panic: %s", e.PC, e.Reason)
}

// recoverGuestFault converts a panic escaping a run loop into a structured
// error: a guest memory-limit trip surfaces as the *mem.LimitError the
// memory raised; anything else becomes a *GuestFault. Stats batched in
// StepBlock locals at the moment of the panic are lost (the panic unwinds
// past the flush), so counters on this path are best-effort.
func (c *CPU) recoverGuestFault(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if le, ok := r.(*mem.LimitError); ok {
		*err = le
		return
	}
	*err = &GuestFault{PC: c.pc, Reason: fmt.Sprint(r)}
}

// InjectAt arms fn to run exactly once, at the first point where the
// retired-instruction count is at least n — between instructions, with the
// architectural state fully consistent. It is the trigger mechanism of the
// fault-injection engine (internal/fault): the injector flips taint bits,
// corrupts words, or garbles pending input, and execution continues.
//
// The trigger is honored identically by Run and RunFast: the fast path
// truncates its block chains at the trigger count, so an injection lands
// at the same instruction boundary as under the reference interpreter.
// Arming changes no block input — predecoded blocks and superblocks read
// taint only at run time — so an armed fork keeps dispatching its
// family's shared blocks and traces.
func (c *CPU) InjectAt(n uint64, fn func(*CPU)) {
	c.injectAt, c.injectFn = n, fn
}

// fireInjection runs and disarms a due injection callback. Split from the
// run loops so their hot paths only pay a nil check.
func (c *CPU) fireInjection() {
	fn := c.injectFn
	c.injectFn = nil
	fn(c)
}

// injectionDue reports whether an armed injection has reached its trigger.
func (c *CPU) injectionDue() bool {
	return c.injectFn != nil && c.stats.Instructions >= c.injectAt
}
