package cpu

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/isa"
)

// SetTracer streams an execution trace to w: one line per retired
// instruction with its address, disassembly, and — for register-writing
// instructions — the source operands with their taint. limit bounds the
// number of traced instructions (0 = unlimited). Tracing is a debugging
// facility; it does not perturb execution.
//
// The text tracer is a view over the structured event sink: each traced
// instruction is emitted as an EvInstr event (Detail carries the
// rendered line) into the machine's sink, and w receives the Detail of
// exactly those events. A sink is attached on demand, so -trace and the
// structured exporters observe one shared event stream.
func (c *CPU) SetTracer(w io.Writer, limit uint64) {
	c.tracer = w
	c.traceLimit = limit
	c.traced = 0
	if w != nil {
		c.EnableEvents(DefaultEventCap)
	}
}

// trace emits one EvInstr event for the instruction about to execute and
// renders it to the text tracer.
func (c *CPU) trace(in isa.Instruction) {
	if c.traceLimit > 0 && c.traced >= c.traceLimit {
		c.tracer = nil
		return
	}
	c.traced++
	ev := Event{Kind: EvInstr, Instrs: c.stats.Instructions, PC: c.pc}
	var b strings.Builder
	fmt.Fprintf(&b, "%08x  %-28s", c.pc, isa.Disassemble(in, c.pc))
	if dst, ok := destReg(in); ok && dst != isa.RegZero {
		// Shown pre-execution state is uninteresting; the post-state is
		// printed by the next call. Print sources instead: the register
		// operands with their taint.
		ev.Reg, ev.Value, ev.Taint = in.Rs, c.regs[in.Rs], c.regTaint[in.Rs]
		fmt.Fprintf(&b, "  %v=%#x/%v", in.Rs, c.regs[in.Rs], c.regTaint[in.Rs])
		if usesRt(in) {
			fmt.Fprintf(&b, " %v=%#x/%v", in.Rt, c.regs[in.Rt], c.regTaint[in.Rt])
		}
	} else if in.Op.IsJumpReg() {
		ev.Reg, ev.Value, ev.Taint = in.Rs, c.regs[in.Rs], c.regTaint[in.Rs]
		fmt.Fprintf(&b, "  %v=%#x/%v", in.Rs, c.regs[in.Rs], c.regTaint[in.Rs])
	}
	ev.Detail = b.String()
	if c.prov != nil && ev.Taint != 0 {
		ev.Label = c.prov.regLabel[ev.Reg]
	}
	if c.events != nil {
		c.events.Emit(ev)
	}
	io.WriteString(c.tracer, ev.Detail)
	io.WriteString(c.tracer, "\n")
}

// destReg reports the register an instruction writes, if any.
func destReg(in isa.Instruction) (isa.Register, bool) {
	switch in.Op.Kind() {
	case isa.KindALU, isa.KindCompare, isa.KindShift:
		switch in.Op.Format() {
		case isa.FormatR:
			return in.Rd, true
		default:
			return in.Rt, true
		}
	case isa.KindLoad:
		return in.Rt, true
	}
	return 0, false
}

// usesRt reports whether the instruction reads Rt as a source.
func usesRt(in isa.Instruction) bool {
	switch in.Op.Kind() {
	case isa.KindALU, isa.KindCompare:
		return in.Op.Format() == isa.FormatR
	case isa.KindShift, isa.KindStore:
		return true
	case isa.KindBranch:
		return in.Op == isa.OpBEQ || in.Op == isa.OpBNE
	}
	return false
}
