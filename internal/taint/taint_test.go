package taint

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func reg(v uint32, t Vec, r isa.Register) Operand {
	return Operand{Value: v, Taint: t, Reg: r}
}

func imm(v uint32) Operand {
	return Operand{Value: v, Reg: NoRegister, IsImm: true}
}

func TestVecBasics(t *testing.T) {
	if None.Any() {
		t.Error("None.Any() = true")
	}
	if !Word.Any() {
		t.Error("Word.Any() = false")
	}
	v := None.SetByte(2, true)
	if !v.Byte(2) || v.Byte(0) || v.Byte(1) || v.Byte(3) {
		t.Errorf("SetByte(2): got %v", v)
	}
	if got := v.SetByte(2, false); got != None {
		t.Errorf("clearing byte 2: got %v", got)
	}
	if got := Vec(0b0101).Or(0b0010); got != 0b0111 {
		t.Errorf("Or = %04b", got)
	}
}

func TestForWidth(t *testing.T) {
	cases := map[int]Vec{1: 0x1, 2: 0x3, 4: Word, 3: None, 0: None, 8: None}
	for n, want := range cases {
		if got := ForWidth(n); got != want {
			t.Errorf("ForWidth(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestVecString(t *testing.T) {
	cases := map[Vec]string{
		None:   "....",
		Word:   "TTTT",
		0x1:    "...T",
		0x8:    "T...",
		0b0110: ".TT.",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("Vec(%04b).String() = %q, want %q", v, got, want)
		}
	}
}

func TestDefaultALUPropagation(t *testing.T) {
	// Table 1 row 1: "Taintedness of R1 = (Taintedness of R2) or
	// (Taintedness of R3)" for plain ALU ops.
	var p Propagator
	for _, op := range []isa.Opcode{isa.OpADD, isa.OpADDU, isa.OpSUB, isa.OpOR,
		isa.OpNOR, isa.OpMUL, isa.OpDIV, isa.OpREM, isa.OpADDI, isa.OpORI} {
		res := p.Propagate(op, reg(1, 0b0011, 8), reg(2, 0b1000, 9))
		if res.Out != 0b1011 {
			t.Errorf("%v: Out = %v, want %v", op, res.Out, Vec(0b1011))
		}
		if res.UntaintA || res.UntaintB {
			t.Errorf("%v: unexpected operand untaint", op)
		}
	}
}

func TestShiftSmear(t *testing.T) {
	var p Propagator
	// Left shift: taint smears toward higher bytes.
	res := p.Propagate(isa.OpSLL, reg(0xAB, 0b0001, 8), imm(8))
	if res.Out != 0b0011 {
		t.Errorf("SLL smear: got %v, want %v", res.Out, Vec(0b0011))
	}
	// Right shift: toward lower bytes.
	res = p.Propagate(isa.OpSRL, reg(0xAB000000, 0b1000, 8), imm(8))
	if res.Out != 0b1100 {
		t.Errorf("SRL smear: got %v, want %v", res.Out, Vec(0b1100))
	}
	// SRA behaves like SRL for taint.
	res = p.Propagate(isa.OpSRA, reg(0xAB000000, 0b0100, 8), imm(4))
	if res.Out != 0b0110 {
		t.Errorf("SRA smear: got %v, want %v", res.Out, Vec(0b0110))
	}
	// Untainted operand stays untainted.
	res = p.Propagate(isa.OpSLL, reg(0xFF, None, 8), imm(24))
	if res.Out != None {
		t.Errorf("SLL untainted: got %v", res.Out)
	}
	// Tainted variable shift amount taints everything.
	res = p.Propagate(isa.OpSLLV, reg(0xFF, None, 8), reg(4, 0b0001, 9))
	if res.Out != Word {
		t.Errorf("SLLV tainted shamt: got %v, want TTTT", res.Out)
	}
	// Smear at the edge does not overflow the 4-bit lane mask.
	res = p.Propagate(isa.OpSLL, reg(0, Word, 8), imm(1))
	if res.Out != Word {
		t.Errorf("SLL full word: got %v", res.Out)
	}
}

func TestShiftSmearDisabled(t *testing.T) {
	p := Propagator{DisableShiftSmear: true}
	res := p.Propagate(isa.OpSLL, reg(0xAB, 0b0001, 8), imm(8))
	if res.Out != 0b0001 {
		t.Errorf("smear disabled: got %v, want plain copy", res.Out)
	}
}

func TestAndUntaintRule(t *testing.T) {
	var p Propagator
	// Table 1: "Untaint each byte AND-ed with an untainted zero."
	// 0xFFFF00FF & tainted word: byte 1 of mask is untainted zero.
	res := p.Propagate(isa.OpAND, reg(0x61616161, Word, 8), reg(0xFFFF00FF, None, 9))
	if res.Out != 0b1101 {
		t.Errorf("AND untaint: got %v, want %v", res.Out, Vec(0b1101))
	}
	// Tainted zero does NOT untaint.
	res = p.Propagate(isa.OpAND, reg(0x61616161, Word, 8), reg(0, Word, 9))
	if res.Out != Word {
		t.Errorf("AND tainted zero: got %v, want TTTT", res.Out)
	}
	// ANDI with a zero immediate byte untaints those lanes: andi r,r,0xFF
	// clears bytes 1-3 (immediate is zero-extended, untainted).
	res = p.Propagate(isa.OpANDI, reg(0x61616161, Word, 8), imm(0xFF))
	if res.Out != 0b0001 {
		t.Errorf("ANDI mask: got %v, want %v", res.Out, Vec(0b0001))
	}
}

func TestAndUntaintDisabled(t *testing.T) {
	p := Propagator{DisableAndUntaint: true}
	res := p.Propagate(isa.OpANDI, reg(0x61616161, Word, 8), imm(0xFF))
	if res.Out != Word {
		t.Errorf("AND rule disabled: got %v, want TTTT", res.Out)
	}
}

func TestXorIdiom(t *testing.T) {
	var p Propagator
	// XOR r1,r2,r2 assigns constant 0: result untainted.
	res := p.Propagate(isa.OpXOR, reg(0x61616161, Word, 9), reg(0x61616161, Word, 9))
	if res.Out != None {
		t.Errorf("XOR idiom: got %v, want none", res.Out)
	}
	// XOR of two different registers propagates normally.
	res = p.Propagate(isa.OpXOR, reg(1, 0b0001, 8), reg(2, 0b0010, 9))
	if res.Out != 0b0011 {
		t.Errorf("XOR distinct: got %v", res.Out)
	}
}

func TestXorIdiomDisabled(t *testing.T) {
	p := Propagator{DisableXorIdiom: true}
	res := p.Propagate(isa.OpXOR, reg(7, Word, 9), reg(7, Word, 9))
	if res.Out != Word {
		t.Errorf("XOR idiom disabled: got %v, want TTTT", res.Out)
	}
}

func TestCompareUntaint(t *testing.T) {
	var p Propagator
	for _, op := range []isa.Opcode{isa.OpSLT, isa.OpSLTU} {
		res := p.Propagate(op, reg(5, Word, 8), reg(10, Word, 9))
		if res.Out != None {
			t.Errorf("%v result tainted: %v", op, res.Out)
		}
		if !res.UntaintA || !res.UntaintB {
			t.Errorf("%v: operands not untainted", op)
		}
	}
	// Immediate compare untaints only the register operand.
	res := p.Propagate(isa.OpSLTI, reg(5, Word, 8), imm(10))
	if !res.UntaintA || res.UntaintB {
		t.Errorf("SLTI: UntaintA=%v UntaintB=%v", res.UntaintA, res.UntaintB)
	}
	// Branches are not validation per Table 1: off by default, on only as
	// an explicit ablation.
	if p.BranchUntaint() {
		t.Error("BranchUntaint() = true by default")
	}
	pb := Propagator{EnableBranchUntaint: true}
	if !pb.BranchUntaint() {
		t.Error("EnableBranchUntaint did not enable branch untainting")
	}
}

func TestCompareUntaintDisabled(t *testing.T) {
	p := Propagator{DisableCompareUntaint: true}
	res := p.Propagate(isa.OpSLT, reg(5, Word, 8), reg(10, Word, 9))
	if res.UntaintA || res.UntaintB {
		t.Error("compare untaint applied while disabled")
	}
	if p.BranchUntaint() {
		t.Error("BranchUntaint() = true while disabled")
	}
}

func TestWordGranularityAblation(t *testing.T) {
	p := Propagator{WordGranularity: true}
	res := p.Propagate(isa.OpADD, reg(1, 0b0001, 8), reg(2, None, 9))
	if res.Out != Word {
		t.Errorf("word granularity: got %v, want TTTT", res.Out)
	}
	res = p.Propagate(isa.OpADD, reg(1, None, 8), reg(2, None, 9))
	if res.Out != None {
		t.Errorf("word granularity untainted: got %v", res.Out)
	}
}

func TestPolicyMemAccess(t *testing.T) {
	// Pointer taintedness alerts on tainted load AND store addresses.
	if kind, alert := PolicyPointerTaintedness.CheckMemAccess(isa.OpLW, 0b0001); !alert || kind != AlertLoadAddress {
		t.Errorf("PT load: kind=%v alert=%v", kind, alert)
	}
	if kind, alert := PolicyPointerTaintedness.CheckMemAccess(isa.OpSW, Word); !alert || kind != AlertStoreAddress {
		t.Errorf("PT store: kind=%v alert=%v", kind, alert)
	}
	if _, alert := PolicyPointerTaintedness.CheckMemAccess(isa.OpLW, None); alert {
		t.Error("PT untainted load alerted")
	}
	// Control-data-only never alerts on data accesses.
	if _, alert := PolicyControlDataOnly.CheckMemAccess(isa.OpSW, Word); alert {
		t.Error("CD-only alerted on a data store")
	}
	if _, alert := PolicyOff.CheckMemAccess(isa.OpLW, Word); alert {
		t.Error("off policy alerted")
	}
}

func TestPolicyJumpReg(t *testing.T) {
	if kind, alert := PolicyPointerTaintedness.CheckJumpReg(0b1000); !alert || kind != AlertJumpTarget {
		t.Errorf("PT jr: kind=%v alert=%v", kind, alert)
	}
	// The control-data baseline DOES catch tainted jump targets.
	if _, alert := PolicyControlDataOnly.CheckJumpReg(Word); !alert {
		t.Error("CD-only missed a tainted jump target")
	}
	if _, alert := PolicyOff.CheckJumpReg(Word); alert {
		t.Error("off policy alerted on jr")
	}
	if _, alert := PolicyPointerTaintedness.CheckJumpReg(None); alert {
		t.Error("PT alerted on untainted jr")
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyPointerTaintedness.String() != "pointer-taintedness" ||
		PolicyControlDataOnly.String() != "control-data-only" ||
		PolicyOff.String() != "off" {
		t.Error("policy String() mismatch")
	}
	if AlertLoadAddress.String() != "tainted-load-address" ||
		AlertStoreAddress.String() != "tainted-store-address" ||
		AlertJumpTarget.String() != "tainted-jump-target" {
		t.Error("alert kind String() mismatch")
	}
}

// Property: OR-merge propagation is monotone — the result is tainted
// wherever either source is.
func TestQuickOrMergeMonotone(t *testing.T) {
	var p Propagator
	f := func(at, bt uint8, av, bv uint32) bool {
		a, b := Vec(at)&0xF, Vec(bt)&0xF
		res := p.Propagate(isa.OpADD, reg(av, a, 8), reg(bv, b, 9))
		return res.Out == a.Or(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the AND rule never *adds* taint relative to OR-merge, and never
// leaves taint on a lane where both inputs were untainted.
func TestQuickAndRuleSound(t *testing.T) {
	f := func(at, bt uint8, av, bv uint32) bool {
		a, b := Vec(at)&0xF, Vec(bt)&0xF
		out := AndMerge(av, a, bv, b)
		if out&^a.Or(b) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: smear only ever moves taint one lane in the stated direction.
func TestQuickSmearAdjacency(t *testing.T) {
	f := func(vt uint8) bool {
		v := Vec(vt) & 0xF
		l, r := v.Smear(ShiftLeft), v.Smear(ShiftRight)
		return l == (v|v<<1)&0xF && r == (v|v>>1)&0xF && v.Smear(ShiftNone) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"pointer":             PolicyPointerTaintedness,
		"pointer-taintedness": PolicyPointerTaintedness,
		"control":             PolicyControlDataOnly,
		"control-data-only":   PolicyControlDataOnly,
		"off":                 PolicyOff,
	}
	for name, want := range cases {
		got, ok := ParsePolicy(name)
		if !ok || got != want {
			t.Errorf("ParsePolicy(%q) = %v,%v", name, got, ok)
		}
	}
	if _, ok := ParsePolicy("bogus"); ok {
		t.Error("bogus policy parsed")
	}
}

// table1Spec is Table 1 written out the long way, by instruction kind,
// as the paper states it: the oracle TestTable1Exhaustive holds the
// table-driven Propagate to.
func table1Spec(p Propagator, op isa.Opcode, a, b Operand) Result {
	var res Result
	switch op.Kind() {
	case isa.KindShift:
		out := a.Taint
		if !p.DisableShiftSmear {
			switch op {
			case isa.OpSLL, isa.OpSLLV:
				out = (out | out<<1) & 0xF
			default:
				out = (out | out>>1) & 0xF
			}
		}
		if b.Taint != None {
			out = Word
		}
		res.Out = out
	case isa.KindCompare:
		if !p.DisableCompareUntaint {
			res.UntaintA, res.UntaintB = !a.IsImm, !b.IsImm
		}
	default:
		res.Out = a.Taint | b.Taint
		switch {
		case (op == isa.OpAND || op == isa.OpANDI) && !p.DisableAndUntaint:
			for i := 0; i < 4; i++ {
				if (byte(a.Value>>(8*i)) == 0 && !a.Taint.Byte(i)) || (byte(b.Value>>(8*i)) == 0 && !b.Taint.Byte(i)) {
					res.Out &^= 1 << i
				}
			}
		case op == isa.OpXOR && !p.DisableXorIdiom && !a.IsImm && !b.IsImm && a.Reg == b.Reg:
			res.Out = None
		}
	}
	if p.WordGranularity && res.Out != None {
		res.Out = Word
	}
	return res
}

// TestTable1Exhaustive checks the table against the rules as stated, for
// every ALU, shift and compare opcode, every pair of operand taint
// vectors, register and immediate second operands (aliased or not), a
// spread of operand values, and every combination of ablation switches.
func TestTable1Exhaustive(t *testing.T) {
	var ops []isa.Opcode
	for op := isa.Opcode(0); int(op) <= isa.NumOpcodes; op++ {
		switch op.Kind() {
		case isa.KindALU, isa.KindCompare, isa.KindShift:
			ops = append(ops, op)
		}
	}
	if len(ops) < 25 {
		t.Fatalf("only %d ALU, shift and compare opcodes", len(ops))
	}
	values := []uint32{0, 0xFF00FF00, 0x00FF00FF, 0x61616161}
	checked := 0
	for sw := 0; sw < 1<<5; sw++ {
		p := Propagator{
			DisableCompareUntaint: sw&1 != 0,
			DisableAndUntaint:     sw&2 != 0,
			DisableXorIdiom:       sw&4 != 0,
			DisableShiftSmear:     sw&8 != 0,
			WordGranularity:       sw&16 != 0,
		}
		for _, op := range ops {
			for ta := None; ta <= Word; ta++ {
				for tb := None; tb <= Word; tb++ {
					for _, av := range values {
						for _, bv := range values {
							a := Operand{Value: av, Taint: ta, Reg: 8}
							for _, b := range []Operand{
								{Value: bv, Taint: tb, Reg: 9},
								{Value: bv, Taint: tb, Reg: 8},
								{Value: bv, Reg: NoRegister, IsImm: true},
							} {
								got, want := p.Propagate(op, a, b), table1Spec(p, op, a, b)
								if got != want {
									t.Fatalf("%+v %v a=%+v b=%+v: got %+v, want %+v", p, op, a, b, got, want)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases", checked)
}
