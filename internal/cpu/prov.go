package cpu

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/prov"
	"repro/internal/taint"
)

// provState is the CPU side of taint provenance: the label table plus a
// per-register label/birth shadow beside the register taint file. nil
// means provenance is disabled, and every hook site gates on that one
// pointer — the disabled machine executes not a single extra instruction
// on its hot paths.
//
// Labels follow the same lazy discipline as the memory shadow (mem's
// prov.go): they are written only when taint is, never cleared when
// taint is, and meaningless wherever the taint shadow is clean. That is
// what keeps the fast path's clean-operand short-circuit label-free:
// a clean result carries taint.None, so whatever stale label sits under
// it can never be observed.
type provState struct {
	table *prov.Table
	// regLabel[r] names the inputs register r's value derives from, valid
	// while regTaint[r] != None.
	regLabel [isa.NumRegisters]prov.Label
	// regBirth[r] is the pc of the instruction that brought the current
	// taint into r: the tainted load, or inherited from the first tainted
	// source through ALU propagation — "the instruction that first made
	// the value tainted".
	regBirth [isa.NumRegisters]uint32
}

// fork copies the provenance state for a fork: the register shadows copy
// by value, and the fork's table is a layer on p's, so post-fork inputs
// diverge independently while pre-fork labels resolve through p's table
// without a copy of it.
func (p *provState) fork() *provState {
	n := new(provState)
	*n = *p
	n.table = p.table.Layer()
	return n
}

// FlattenProv replaces the provenance table with a flat copy of itself,
// taking it off the table it layers on. The snapshot layer calls it on a
// snapshot's CPU: forks of the snapshot then layer on a table that no
// running machine writes. A no-op with provenance disabled.
func (c *CPU) FlattenProv() {
	if c.prov != nil {
		c.prov.table = c.prov.table.Clone()
	}
}

// EnableProvenance turns on taint provenance tracking: every input
// delivery allocates an origin label, loads/stores/ALU propagation carry
// and merge labels beside the taint shadow, and alerts gain a Provenance
// chain. Provenance needs the flat-memory fast bus (the label shadow has
// no meaning through a timing-modelled cache port) and should be enabled
// before the kernel writes argv/env so boot-time taint is labelled too.
// Idempotent; returns an error on a cache-hierarchy machine.
func (c *CPU) EnableProvenance() error {
	if c.prov != nil {
		return nil
	}
	if c.flatMem == nil {
		return errors.New("provenance requires flat memory (no cache hierarchy)")
	}
	c.prov = &provState{table: prov.NewTable()}
	c.flatMem.EnableProv()
	return nil
}

// ProvEnabled reports whether provenance tracking is on.
func (c *CPU) ProvEnabled() bool { return c.prov != nil }

// ProvTable exposes the label table (nil when disabled) for forensic
// consumers: the fault injector's lost-label capture, tests, exporters.
func (c *CPU) ProvTable() *prov.Table {
	if c.prov == nil {
		return nil
	}
	return c.prov.table
}

// RegProvLabel returns r's current label; meaningful only while r's
// taint is set.
func (c *CPU) RegProvLabel(r isa.Register) prov.Label {
	if c.prov == nil {
		return 0
	}
	return c.prov.regLabel[r]
}

// ProvInput records one external input delivery: the n bytes at addr —
// just written tainted by the kernel — acquire a fresh origin label.
// source names the channel ("read", "recv", "argv", "env"), fd the guest
// descriptor (-1 for boot-time sources), off the byte offset within that
// descriptor's stream. The kernel calls this after a tainted copy-out;
// with provenance disabled it is a no-op.
func (c *CPU) ProvInput(source string, fd int32, off uint64, addr uint32, n int) {
	if c.prov == nil || n <= 0 {
		return
	}
	o := prov.Origin{
		Syscall: source,
		FD:      fd,
		Offset:  off,
		Len:     uint32(n),
		Addr:    addr,
		Instrs:  c.stats.Instructions,
	}
	l := c.prov.table.Source(o)
	m := c.flatMem
	end := addr + uint32(n)
	for w := addr &^ 3; w < end; w += 4 {
		if w < addr || w+4 > end {
			// A word only partially covered by this delivery may carry
			// labels on its other bytes; merge rather than overwrite.
			m.SetProvLabel(w, c.prov.table.Union(m.ProvLabel(w), l))
		} else {
			m.SetProvLabel(w, l)
		}
	}
	if c.events != nil {
		c.events.Emit(Event{
			Kind:   EvInput,
			Instrs: o.Instrs,
			PC:     c.pc,
			Addr:   addr,
			Label:  l,
			Detail: o.String(),
		})
	}
}

// provProp records the destination's provenance after Table 1
// propagation produced a tainted result: the union of the tainted source
// registers' labels, inheriting the first tainted source's birth pc.
// Called (gated on c.prov) after execALU/execShift wrote dst; a and b
// are the operand views captured before the write, so dst aliasing a
// source is safe. pc is the instruction's address (the birth pc of a
// result with no tainted register source) and instrs the exact retired
// count, as for provLoad, so the block tier need not sync its lazy pc
// and counters first. Tainted ALU work takes the full execALU path in
// both engines — the fast path's short-circuit fires only when the
// result is provably clean — so label allocation order, and hence every
// label number, is engine-independent.
func (c *CPU) provProp(dst isa.Register, out taint.Vec, a, b taint.Operand, pc uint32, instrs uint64) {
	if out == taint.None || dst == isa.RegZero {
		return
	}
	var l prov.Label
	birth := pc
	if a.Reg != taint.NoRegister && a.Taint != taint.None {
		l = c.prov.regLabel[a.Reg]
		birth = c.prov.regBirth[a.Reg]
	}
	if b.Reg != taint.NoRegister && b.Taint != taint.None {
		if l == 0 {
			birth = c.prov.regBirth[b.Reg]
		}
		l = c.prov.table.Union(l, c.prov.regLabel[b.Reg])
	}
	c.prov.regLabel[dst] = l
	c.prov.regBirth[dst] = birth
	if c.events != nil {
		c.events.Emit(Event{
			Kind:   EvPointerTaint,
			Instrs: instrs,
			PC:     pc,
			Reg:    dst,
			Value:  c.regs[dst],
			Taint:  out,
			Label:  l,
		})
	}
}

// provLoad records dst's provenance after a load brought a tainted value
// in: the label of the source word, born at this load's pc. instrs is
// the exact retired count (the fast path passes its batched total).
func (c *CPU) provLoad(dst isa.Register, addr, pc uint32, instrs uint64) {
	if dst == isa.RegZero {
		return
	}
	l := c.flatMem.ProvLabel(addr)
	c.prov.regLabel[dst] = l
	c.prov.regBirth[dst] = pc
	if c.events != nil {
		c.events.Emit(Event{
			Kind:   EvTaintBirth,
			Instrs: instrs,
			PC:     pc,
			Addr:   addr,
			Reg:    dst,
			Value:  c.regs[dst],
			Taint:  c.regTaint[dst],
			Label:  l,
		})
	}
}

// provStore records the stored value's label on the destination word
// after a tainted store: full-word stores overwrite, narrower stores
// merge with whatever the word already carried. Clean stores never come
// here — their taint.None result makes any leftover label unobservable.
func (c *CPU) provStore(addr uint32, width int, src isa.Register) {
	l := c.prov.regLabel[src]
	m := c.flatMem
	if width == 4 {
		m.SetProvLabel(addr, l)
		return
	}
	m.SetProvLabel(addr&^3, c.prov.table.Union(m.ProvLabel(addr), l))
}

// Provenance is the forensic chain attached to a SecurityAlert when
// provenance is enabled: which external input bytes the dereferenced
// value derives from, and where its taint was born.
type Provenance struct {
	// Label is the dereferenced register's provenance label (0 if the
	// taint has no recorded origin — e.g. injected by a fault campaign).
	Label prov.Label
	// BirthPC is the instruction that first made the value tainted (the
	// load, or the oldest tainted ancestor of the propagation chain).
	BirthPC  uint32
	BirthSym string
	BirthOff uint32
	// Origins are the concrete input deliveries the value derives from,
	// deduplicated, in arrival order.
	Origins []prov.Origin
}

// String renders the chain as a multi-line forensic report.
func (p *Provenance) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tainted at %#08x", p.BirthPC)
	if p.BirthSym != "" {
		fmt.Fprintf(&b, " in %s+%#x", p.BirthSym, p.BirthOff)
	}
	if len(p.Origins) == 0 {
		b.WriteString("\n  <- (no recorded input origin)")
		return b.String()
	}
	for _, o := range p.Origins {
		fmt.Fprintf(&b, "\n  <- %s", o.String())
	}
	return b.String()
}

// provChain builds the Provenance record for the register an alert is
// about to name.
func (c *CPU) provChain(r isa.Register) *Provenance {
	p := &Provenance{
		Label:   c.prov.regLabel[r],
		BirthPC: c.prov.regBirth[r],
	}
	p.BirthSym, p.BirthOff = c.symbolFor(p.BirthPC)
	p.Origins = c.prov.table.Origins(p.Label)
	return p
}
