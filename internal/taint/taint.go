// Package taint implements the extended memory model of the DSN 2005
// pointer-taintedness paper: every byte of state carries a taintedness bit,
// ALU instructions propagate taint per the paper's Table 1, and a detection
// policy decides which uses of tainted words raise a security exception.
package taint

import (
	"strings"

	"repro/internal/isa"
)

// Vec is the taintedness of one 32-bit word: bit i set means byte i of the
// word (little-endian, byte 0 is bits 0-7 of the value) is tainted.
type Vec uint8

// Common vectors.
const (
	None Vec = 0        // fully untainted word
	Word Vec = 0xF      // all four bytes tainted
	mask     = Vec(0xF) // valid bits
)

// ForWidth returns the vector with the low n byte-lanes tainted; n must be
// 1, 2, or 4 (the machine access widths).
func ForWidth(n int) Vec {
	switch n {
	case 1:
		return 0x1
	case 2:
		return 0x3
	case 4:
		return Word
	}
	return None
}

// Any reports whether any byte of the word is tainted. This is the OR-gate
// of the paper's Section 4.3 detectors: "the four taintedness bits in the
// target register are OR-ed".
func (v Vec) Any() bool { return v&mask != 0 }

// Byte reports whether byte lane i (0-3) is tainted.
func (v Vec) Byte(i int) bool { return v&(1<<uint(i)) != 0 }

// SetByte returns v with byte lane i's taint set to b.
func (v Vec) SetByte(i int, b bool) Vec {
	if b {
		return v | 1<<uint(i)
	}
	return v &^ (1 << uint(i))
}

// Or merges two vectors byte-wise (the default ALU propagation of Table 1).
func (v Vec) Or(o Vec) Vec { return (v | o) & mask }

// String renders the vector as four lane markers, byte 3 first (so it reads
// like the hex rendering of the word), e.g. "TT.." for a word whose top two
// bytes are tainted.
func (v Vec) String() string {
	var b strings.Builder
	for i := 3; i >= 0; i-- {
		if v.Byte(i) {
			b.WriteByte('T')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

// ShiftDirection is the byte-lane direction a shift smears taint toward.
type ShiftDirection int

// Shift directions.
const (
	ShiftNone  ShiftDirection = 0
	ShiftLeft  ShiftDirection = 1  // toward higher-order bytes (SLL)
	ShiftRight ShiftDirection = -1 // toward lower-order bytes (SRL/SRA)
)

// Smear implements Table 1's shift rule: "If a byte in the operand register
// is tainted, the taintedness bit of its adjacent byte along the direction
// of shifting is set to 1."
func (v Vec) Smear(dir ShiftDirection) Vec {
	switch dir {
	case ShiftLeft:
		return (v | v<<1) & mask
	case ShiftRight:
		return (v | v>>1) & mask
	}
	return v & mask
}

// AndMerge implements Table 1's AND rule: the result byte is untainted when
// either operand byte is an untainted zero (the result is then the constant
// 0 regardless of user input); otherwise the default OR-merge applies.
func AndMerge(aVal uint32, aTaint Vec, bVal uint32, bTaint Vec) Vec {
	out := aTaint.Or(bTaint)
	for i := 0; i < 4; i++ {
		sh := uint(i * 8)
		aByte, bByte := byte(aVal>>sh), byte(bVal>>sh)
		if (aByte == 0 && !aTaint.Byte(i)) || (bByte == 0 && !bTaint.Byte(i)) {
			out = out.SetByte(i, false)
		}
	}
	return out
}

// Propagator computes result taint and operand-untaint effects for one
// instruction, given the opcode, the source operand values, and their taint.
// It implements the full Table 1 of the paper. The zero value is ready to
// use with every rule enabled; individual rules can be disabled for
// ablation studies.
type Propagator struct {
	// DisableCompareUntaint turns off the rule that compare instructions
	// untaint their operands. With the rule off, validated data stays
	// tainted (more false positives, fewer false negatives).
	DisableCompareUntaint bool
	// DisableAndUntaint turns off the AND-with-untainted-zero rule.
	DisableAndUntaint bool
	// DisableXorIdiom turns off the XOR r1,r2,r2 constant-zero idiom rule.
	DisableXorIdiom bool
	// DisableShiftSmear turns off adjacent-byte smearing on shifts; taint
	// then propagates through shifts as a plain copy of the operand vector.
	DisableShiftSmear bool
	// WordGranularity collapses taint to whole words: any tainted byte
	// taints all four lanes of the result. Used by the granularity
	// ablation; the paper argues for per-byte bits.
	WordGranularity bool
	// DisableHomeWriteThrough keeps the compare-untaint rule on registers
	// but stops the machine writing the untaint through to the memory a
	// register was loaded from. The write-through stands in for the
	// register allocation of the paper's binaries (DESIGN.md); the
	// ablation shows which benign programs then false-positive.
	DisableHomeWriteThrough bool
	// EnableBranchUntaint extends the compare-untaint rule to conditional
	// branches. Table 1 names only compare instructions; treating equality
	// branches as validation would let a null-check launder a corrupted
	// pointer, so this is off by default and exists for ablation.
	EnableBranchUntaint bool
}

// Operand is one ALU source: its value, taint, and the register it came
// from (NoRegister for immediates, which are untainted by definition).
type Operand struct {
	Value uint32
	Taint Vec
	Reg   isa.Register
	IsImm bool
}

// NoRegister marks an operand that does not come from the register file.
const NoRegister = isa.Register(255)

// Result is the taint outcome of executing one ALU instruction.
type Result struct {
	// Out is the taint of the destination register value.
	Out Vec
	// UntaintA / UntaintB request clearing the taint of the corresponding
	// source *register* (compare-untaint rule); the CPU applies them to the
	// register file.
	UntaintA bool
	UntaintB bool
}

// Rule is the Table 1 row an instruction's result taint follows.
type Rule uint8

// Table 1's rules, plus the forms the ablation switches reduce them to.
// RuleOr is the zero value: every ALU instruction Table 1 does not single
// out merges its operands' taint byte-wise.
const (
	RuleOr         Rule = iota // "Taintedness of R1 = (Taintedness of R2) or (Taintedness of R3)"
	RuleAnd                    // untaint each byte AND-ed with an untainted zero
	RuleXor                    // xor r1,r2,r2 is the constant 0: untainted
	RuleShiftLeft              // smear each tainted byte toward the higher-order one
	RuleShiftRight             // smear each tainted byte toward the lower-order one
	RuleShift                  // shift without smearing (DisableShiftSmear)
	RuleCompare                // untainted 0/1 result; validated operands become untainted
	RuleConst                  // untainted result, no operand effect (DisableCompareUntaint)
)

// table1 is Table 1, written once: the rule of every opcode that has
// one. Loads, stores and control transfers are not ALU work and read
// RuleOr, which nothing consults.
var table1 = [isa.NumOpcodes + 1]Rule{
	isa.OpAND: RuleAnd, isa.OpANDI: RuleAnd,
	isa.OpXOR: RuleXor, // XORI: an immediate is never the same register
	isa.OpSLL: RuleShiftLeft, isa.OpSLLV: RuleShiftLeft,
	isa.OpSRL: RuleShiftRight, isa.OpSRA: RuleShiftRight,
	isa.OpSRLV: RuleShiftRight, isa.OpSRAV: RuleShiftRight,
	isa.OpSLT: RuleCompare, isa.OpSLTI: RuleCompare,
	isa.OpSLTU: RuleCompare, isa.OpSLTIU: RuleCompare,
}

// Rule returns op's entry of Table 1 as this propagator's ablation
// switches select it. The reference datapath (Propagate) and the fast
// tiers both apply the rule returned here.
func (p *Propagator) Rule(op isa.Opcode) Rule {
	r := table1[op]
	switch {
	case r == RuleAnd && p.DisableAndUntaint,
		r == RuleXor && p.DisableXorIdiom:
		return RuleOr
	case (r == RuleShiftLeft || r == RuleShiftRight) && p.DisableShiftSmear:
		return RuleShift
	case r == RuleCompare && p.DisableCompareUntaint:
		return RuleConst
	}
	return r
}

// Propagate computes the Table 1 taint outcome for op applied to a and b.
// For single-operand forms (LUI, immediate shifts) pass the unused operand
// as an immediate Operand with zero taint. For shifts a is the datum and
// b the amount.
func (p *Propagator) Propagate(op isa.Opcode, a, b Operand) Result {
	return p.Apply(p.Rule(op), a, b)
}

// Apply computes the taint outcome of rule r (from Rule) on a and b.
func (p *Propagator) Apply(r Rule, a, b Operand) Result {
	var res Result
	switch r {
	case RuleOr:
		res.Out = a.Taint.Or(b.Taint)
	case RuleAnd:
		res.Out = AndMerge(a.Value, a.Taint, b.Value, b.Taint)
	case RuleXor:
		if a.IsImm || b.IsImm || a.Reg != b.Reg {
			res.Out = a.Taint.Or(b.Taint)
		}
	case RuleShiftLeft, RuleShiftRight, RuleShift:
		out := a.Taint
		switch r {
		case RuleShiftLeft:
			out = out.Smear(ShiftLeft)
		case RuleShiftRight:
			out = out.Smear(ShiftRight)
		}
		// A tainted variable shift amount taints the whole result: the
		// attacker chooses how far data moves.
		if b.Taint.Any() {
			out = Word
		}
		res.Out = out & mask
	case RuleCompare:
		// SLT-family: the 0/1 result is untainted, and per Table 1 the
		// operands are untainted in the register file ("any data that
		// undergoes validation is trusted").
		res.UntaintA = !a.IsImm
		res.UntaintB = !b.IsImm
	}
	if p.WordGranularity && res.Out.Any() {
		res.Out = Word
	}
	return res
}

// BranchUntaint reports whether conditional branches untaint their operand
// registers. Per Table 1 this is false by default — only compare (SLT
// family) instructions model validation code — and can be enabled as an
// ablation via EnableBranchUntaint.
func (p *Propagator) BranchUntaint() bool {
	return p.EnableBranchUntaint && !p.DisableCompareUntaint
}
