// Package analysis is a static may-taint analyzer for loaded guest
// images: an interprocedural abstract interpretation of the paper's
// Table 1 taint-propagation rules over a {Clean, MaybeTainted} lattice,
// run to fixpoint over a CFG recovered from the text segment. Its
// verdicts — ProvablyClean vs MayDereferenceTainted per dereference
// site — are the static complement of the CPU's dynamic detectors:
// every dynamic tainted-dereference alert must land on an instruction
// the analyzer did NOT prove clean (the soundness test holds it to
// that), and every per-instruction fact it records (FactOperandsClean,
// FactAddrClean) must hold on every execution the tests replay.
package analysis

import "fmt"

// Taint is the two-point may-taint lattice. Clean means "provably
// untainted on every execution the model covers"; May means "a tainted
// value may reach here".
type Taint uint8

const (
	Clean Taint = 0
	May   Taint = 1
)

// valKind classifies what is known about a value beyond its taint. The
// kinds form a small lattice used to track the compiler's stack
// discipline (everything flows through $sp/$fp-relative slots) and the
// constants that feed syscall numbers and global addresses.
type valKind uint8

const (
	kUnknown  valKind = iota // any value
	kConst                   // exactly the 32-bit constant in v
	kSym                     // function-entry $sp plus the signed delta in v
	kStackAny                // somewhere in the stack segment, offset unknown
	kRetAddr                 // the return address passed to this function in $ra
	kCallerFP                // the caller's $fp as passed at function entry
)

// Taint origins, for the reaching-taint chains ptlint prints.
const (
	whyNone    uint8 = iota
	whyEntry         // external input present at process entry (argv/env) or untracked memory
	whySyscall       // seeded by a SYS_READ/SYS_RECV buffer write
	whyWild          // reached through a store whose target the analysis could not bound
)

// absVal is one abstract value: its taint, what is known about it, and
// where its taint (if any) was introduced, for diagnostics.
type absVal struct {
	t   Taint
	k   valKind
	v   uint32 // constant value (kConst) or signed stack delta (kSym)
	src uint32 // pc that introduced the taint, 0 if unknown
	why uint8
}

// top is the no-information value: possibly tainted, value unknown.
func top(why uint8, src uint32) absVal { return absVal{t: May, k: kUnknown, src: src, why: why} }

func cleanUnknown() absVal { return absVal{t: Clean, k: kUnknown} }
func constVal(v uint32) absVal {
	return absVal{t: Clean, k: kConst, v: v}
}

// withTaint returns a with its taint forced to t (kind preserved —
// untainting a register does not change its value).
func (a absVal) withTaint(t Taint) absVal {
	a.t = t
	if t == Clean {
		a.src, a.why = 0, whyNone
	}
	return a
}

// joinVal is the lattice join: taints OR together, kinds collapse
// toward kUnknown, and differing stack deltas widen to kStackAny so
// pointer-increment loops terminate.
func joinVal(a, b absVal) absVal {
	out := absVal{t: a.t | b.t}
	if out.t == May {
		out.src, out.why = a.src, a.why
		if out.src == 0 {
			out.src, out.why = b.src, b.why
		}
		if out.why == whyNone {
			out.why = whyEntry
		}
	}
	switch {
	case a.k == b.k && a.v == b.v:
		out.k, out.v = a.k, a.v
	case a.k == kSym && b.k == kSym,
		a.k == kSym && b.k == kStackAny,
		a.k == kStackAny && b.k == kSym:
		out.k = kStackAny
	default:
		out.k = kUnknown
	}
	return out
}

func sameVal(a, b absVal) bool {
	return a.t == b.t && a.k == b.k && a.v == b.v && a.src == b.src && a.why == b.why
}

// state is the abstract machine state at one program point: one value
// per register plus the tracked stack slots. Slot keys are byte deltas
// relative to the function's entry $sp (negative = this frame, positive
// = the caller's argument area and frames above); a missing key means
// nothing is known about that word — it joins as top, which is what
// makes uninitialized locals and the tainted argv/env block above the
// root $sp conservatively MaybeTainted.
type state struct {
	regs  [32]absVal
	slots map[int32]absVal
}

func newState() *state {
	return &state{slots: make(map[int32]absVal)}
}

func (s *state) clone() *state {
	n := &state{regs: s.regs, slots: make(map[int32]absVal, len(s.slots))}
	for k, v := range s.slots {
		n.slots[k] = v
	}
	return n
}

// joinInto joins o into s, reporting whether s changed. A slot present
// on only one side joins with the implicit default (top), so it either
// widens in place or — when only o carries it — stays at the default
// and contributes nothing.
func (s *state) joinInto(o *state) bool {
	changed := false
	for i := range s.regs {
		j := joinVal(s.regs[i], o.regs[i])
		if !sameVal(j, s.regs[i]) {
			s.regs[i] = j
			changed = true
		}
	}
	for k, v := range s.slots {
		ov, ok := o.slots[k]
		if !ok {
			ov = top(whyEntry, 0)
		}
		if j := joinVal(v, ov); !sameVal(j, v) {
			s.slots[k] = j
			changed = true
		}
	}
	return changed
}

// taintAllSlots weakens every tracked slot to tainted-unknown: the
// effect of a tainted store through a pointer the analysis could not
// bound (or of a callee that performs one).
func (s *state) taintAllSlots(src uint32) {
	for k := range s.slots {
		s.slots[k] = top(whyWild, src)
	}
}

// dropSlotsBelow forgets every slot strictly below delta: after a call
// returns, the callee's own frame territory holds its dead locals and
// saved registers, about which nothing may be assumed.
func (s *state) dropSlotsBelow(delta int32) {
	for k := range s.slots {
		if k < delta {
			delete(s.slots, k)
		}
	}
}

func (k valKind) String() string {
	switch k {
	case kConst:
		return "const"
	case kSym:
		return "stack-slot"
	case kStackAny:
		return "stack"
	case kRetAddr:
		return "retaddr"
	case kCallerFP:
		return "caller-fp"
	default:
		return "unknown"
	}
}

func (t Taint) String() string {
	if t == Clean {
		return "clean"
	}
	return "may-tainted"
}

func (a absVal) String() string {
	switch a.k {
	case kConst:
		return fmt.Sprintf("%s const %#x", a.t, a.v)
	case kSym:
		return fmt.Sprintf("%s sp%+d", a.t, int32(a.v))
	default:
		return fmt.Sprintf("%s %s", a.t, a.k)
	}
}
