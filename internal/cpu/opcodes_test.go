// Per-opcode value tests on all three engines — the reference Run, the
// basic-block RunFast with superblocks off, and the full RunFast — plus
// the completeness of the dense op-code table both fast tiers share.
package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// OpcodeLoop runs every ALU, shift, compare, load, store and branch
// opcode (and j) on edge operands in one 200-iteration loop, hot enough
// for the superblock tier to compile it. Result k lands in res+4k; the sb
// and sh results land in mem+8 and mem+12. The non-loop branches are
// never taken (fail exits 99). FuzzStepEquivalence seeds from its text.
const OpcodeLoop = `
	.data
mem:	.byte 0x80, 0, 0, 0x80   # lb/lbu at +0 read 0x80, lh/lhu at +2 read 0x8000
	.word 0xDEADBEEF
	.word 0, 0                 # sb writes +8, sh writes +12
res:	.space 160
	.text
main:
	la    $a0, mem
	la    $s7, res
	li    $s0, 0x80000000
	li    $s1, -1
	li    $s2, 7
	li    $s3, 33
	li    $s4, 0x12345678
	li    $s5, -8
	li    $s6, 0
	li    $a1, 200
loop:
	add   $t0, $s2, $s5
	sw    $t0, 0($s7)
	addu  $t0, $s0, $s0
	sw    $t0, 4($s7)
	sub   $t0, $s2, $s5
	sw    $t0, 8($s7)
	subu  $t0, $zero, $s2
	sw    $t0, 12($s7)
	and   $t0, $s4, $s1
	sw    $t0, 16($s7)
	or    $t0, $s0, $s2
	sw    $t0, 20($s7)
	xor   $t0, $s4, $s1
	sw    $t0, 24($s7)
	nor   $t0, $s2, $zero
	sw    $t0, 28($s7)
	slt   $t0, $s0, $s2
	sw    $t0, 32($s7)
	sltu  $t0, $s0, $s2
	sw    $t0, 36($s7)
	mul   $t0, $s5, $s2
	sw    $t0, 40($s7)
	div   $t0, $s0, $s1
	sw    $t0, 44($s7)
	div   $t0, $s2, $zero
	sw    $t0, 48($s7)
	divu  $t0, $s4, $s2
	sw    $t0, 52($s7)
	divu  $t0, $s4, $zero
	sw    $t0, 56($s7)
	rem   $t0, $s0, $s1
	sw    $t0, 60($s7)
	rem   $t0, $s5, $s2
	sw    $t0, 64($s7)
	rem   $t0, $s2, $zero
	sw    $t0, 68($s7)
	remu  $t0, $s4, $s2
	sw    $t0, 72($s7)
	remu  $t0, $s4, $zero
	sw    $t0, 76($s7)
	sll   $t0, $s4, 4
	sw    $t0, 80($s7)
	srl   $t0, $s0, 31
	sw    $t0, 84($s7)
	sra   $t0, $s0, 31
	sw    $t0, 88($s7)
	sllv  $t0, $s4, $s3
	sw    $t0, 92($s7)
	srlv  $t0, $s4, $s3
	sw    $t0, 96($s7)
	srav  $t0, $s0, $s3
	sw    $t0, 100($s7)
	addi  $t0, $s2, -8
	sw    $t0, 104($s7)
	addiu $t0, $s0, -1
	sw    $t0, 108($s7)
	slti  $t0, $s5, -7
	sw    $t0, 112($s7)
	sltiu $t0, $s2, -1
	sw    $t0, 116($s7)
	sltiu $t0, $s1, -1
	sw    $t0, 120($s7)
	andi  $t0, $s1, 0x8000
	sw    $t0, 124($s7)
	ori   $t0, $zero, 0x8000
	sw    $t0, 128($s7)
	xori  $t0, $s1, 0x8000
	sw    $t0, 132($s7)
	lui   $t0, 0x8000
	sw    $t0, 136($s7)
	lb    $t0, 0($a0)
	sw    $t0, 140($s7)
	lbu   $t0, 0($a0)
	sw    $t0, 144($s7)
	lh    $t0, 2($a0)
	sw    $t0, 148($s7)
	lhu   $t0, 2($a0)
	sw    $t0, 152($s7)
	lw    $t0, 4($a0)
	sw    $t0, 156($s7)
	sb    $s4, 8($a0)
	sh    $s4, 12($a0)
	blez  $s2, fail
	bgtz  $s5, fail
	bltz  $s2, fail
	bgez  $s5, fail
	beq   $s2, $zero, fail
	j     next
next:
	addiu $s6, $s6, 1
	bne   $s6, $a1, loop
` + exitZero + `
fail:
	li    $v0, 1
	li    $a0, 99
	syscall
`

// opcodeLoopWant is OpcodeLoop's result array, worked out by hand from
// the instruction semantics of cpu.go (the reference).
var opcodeLoopWant = [...]struct {
	op   string
	want uint32
}{
	{"add 7+-8", 0xFFFFFFFF},
	{"addu INT_MIN+INT_MIN (wraps)", 0},
	{"sub 7-(-8)", 15},
	{"subu 0-7", 0xFFFFFFF9},
	{"and", 0x12345678},
	{"or", 0x80000007},
	{"xor with -1", 0xEDCBA987},
	{"nor 7, 0", 0xFFFFFFF8},
	{"slt INT_MIN < 7", 1},
	{"sltu 0x80000000 < 7", 0},
	{"mul -8*7", 0xFFFFFFC8},
	{"div INT_MIN/-1", 0x80000000},
	{"div 7/0", 0},
	{"divu", 0x0299C335},
	{"divu x/0", 0},
	{"rem INT_MIN%-1", 0},
	{"rem -8%7", 0xFFFFFFFF},
	{"rem 7%0", 0},
	{"remu", 5},
	{"remu x%0", 0},
	{"sll 4", 0x23456780},
	{"srl 31", 1},
	{"sra 31", 0xFFFFFFFF},
	{"sllv by 33", 0x2468ACF0},
	{"srlv by 33", 0x091A2B3C},
	{"srav by 33", 0xC0000000},
	{"addi 7+-8", 0xFFFFFFFF},
	{"addiu INT_MIN-1", 0x7FFFFFFF},
	{"slti -8 < -7", 1},
	{"sltiu 7 < imm -1 (zero-extended to 0xFFFF)", 1},
	{"sltiu 0xFFFFFFFF < 0xFFFF", 0},
	{"andi -1, 0x8000 (zero-extended)", 0x8000},
	{"ori 0, 0x8000", 0x8000},
	{"xori -1, 0x8000", 0xFFFF7FFF},
	{"lui 0x8000", 0x80000000},
	{"lb 0x80", 0xFFFFFF80},
	{"lbu 0x80", 0x80},
	{"lh 0x8000", 0xFFFF8000},
	{"lhu 0x8000", 0x8000},
	{"lw", 0xDEADBEEF},
}

// TestOpcodeLoopThreeEngines checks every opcode's value on the reference,
// the block path alone, and the block path with superblocks, and holds
// the two fast engines to the reference's full architectural state.
func TestOpcodeLoopThreeEngines(t *testing.T) {
	run := func(fast, superblocks bool) (*CPU, *mem.Memory, error) {
		c, m := sbBoot(t, OpcodeLoop)
		if !fast {
			return c, m, c.Run(1_000_000)
		}
		c.SetSuperblocks(superblocks)
		return c, m, c.RunFast(1_000_000)
	}
	im, err := asm.AssembleString(OpcodeLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, base := im.Symbols["res"], im.Symbols["mem"]
	ref, refM, refErr := run(false, false)
	for _, e := range []struct {
		name        string
		fast, sb    bool
		wantSbInstr bool
	}{
		{"reference", false, false, false},
		{"block", true, false, false},
		{"superblock", true, true, true},
	} {
		t.Run(e.name, func(t *testing.T) {
			c, m, err := run(e.fast, e.sb)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if _, code := c.Halted(); code != 0 {
				t.Fatalf("exit code %d: a never-taken branch was taken", code)
			}
			for k, w := range opcodeLoopWant {
				if got, _, _ := m.LoadWord(res + uint32(4*k)); got != w.want {
					t.Errorf("res[%d] %s = %#x, want %#x", k, w.op, got, w.want)
				}
			}
			if got, _, _ := m.LoadWord(base + 8); got != 0x78 {
				t.Errorf("sb stored word %#x, want 0x78", got)
			}
			if got, _, _ := m.LoadWord(base + 12); got != 0x5678 {
				t.Errorf("sh stored word %#x, want 0x5678", got)
			}
			s := c.Stats()
			if got := s.SuperblockInstrs > 0; got != e.wantSbInstr {
				t.Errorf("SuperblockInstrs = %d, want > 0: %v", s.SuperblockInstrs, e.wantSbInstr)
			}
			if s.SuperblockDeopts != 0 {
				t.Errorf("clean loop deopted %d times", s.SuperblockDeopts)
			}
			sbCompareState(t, ref, c, refM, m, refErr, err)
		})
	}
}

// TestDenseOpTable pins the op-code table: every opcode a fast tier
// executes inline has a dense code (a missing one would compute 0 in
// execALUClean), the ops neither tier specialises have none, and each
// memory code's width is the opcode's access width.
func TestDenseOpTable(t *testing.T) {
	for op := isa.Opcode(1); int(op) <= isa.NumOpcodes; op++ {
		code := denseOps[op]
		switch op.Kind() {
		case isa.KindALU, isa.KindShift, isa.KindCompare, isa.KindLoad, isa.KindStore, isa.KindBranch:
			if code == sbNone {
				t.Errorf("%v: no dense code", op)
			}
		}
		switch op {
		case isa.OpJAL, isa.OpJR, isa.OpJALR, isa.OpSYSCALL, isa.OpBREAK:
			if code != sbNone {
				t.Errorf("%v: dense code %d, want sbNone", op, code)
			}
		}
		if op.IsMemory() {
			if got := int(sbWidth[code]); got != op.MemWidth() {
				t.Errorf("%v: code width %d, MemWidth %d", op, got, op.MemWidth())
			}
		}
	}
}
