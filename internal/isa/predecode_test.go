package isa

import "testing"

// words encodes a sequence of instructions for predecode tests.
func words(ins ...Instruction) []uint32 {
	out := make([]uint32, len(ins))
	for i, in := range ins {
		out[i] = MustEncode(in)
	}
	return out
}

// predecode runs PredecodeRun over a word slice with room for limit
// instructions (limit <= 0, or past the end, means all of ws).
func predecode(ws []uint32, limit int) []Instruction {
	if limit <= 0 || limit > len(ws) {
		limit = len(ws)
	}
	out := make([]Instruction, limit)
	return out[:PredecodeRun(out, func(i int) (uint32, bool) { return ws[i], true })]
}

var (
	insADDIU = Instruction{Op: OpADDIU, Rt: 8, Rs: 8, Imm: 1}
	insLW    = Instruction{Op: OpLW, Rt: 9, Rs: 29, Imm: 0}
	insJR    = Instruction{Op: OpJR, Rs: 31}
	insJAL   = Instruction{Op: OpJAL, Target: 0x100000}
	insBack  = Instruction{Op: OpBNE, Rs: 8, Rt: 9, Imm: -3} // backward branch
	insFwd   = Instruction{Op: OpBEQ, Rs: 8, Rt: 9, Imm: 2}  // forward branch
	insSYS   = Instruction{Op: OpSYSCALL}
	insBRK   = Instruction{Op: OpBREAK}
	insNOP   = Instruction{Op: OpNOP}
)

func TestEndsBlockClassification(t *testing.T) {
	cases := []struct {
		op   Opcode
		ends bool
	}{
		{OpJR, true},      // register jump: successor unknown statically
		{OpJALR, true},    // indirect call
		{OpJAL, true},     // direct call still redirects the pc
		{OpJ, true},       // unconditional jump
		{OpBNE, true},     // conditional branch, either direction
		{OpBLTZ, true},    // REGIMM branch
		{OpSYSCALL, true}, // traps into the host
		{OpBREAK, true},   // traps into the host
		{OpNOP, false},    // KindSystem but pure straight-line
		{OpADDIU, false},
		{OpLW, false},
		{OpSW, false},
		{OpSLT, false},
	}
	for _, tc := range cases {
		if got := tc.op.EndsBlock(); got != tc.ends {
			t.Errorf("%v.EndsBlock() = %v, want %v", tc.op, got, tc.ends)
		}
	}
}

// TestPredecodeStopsAtJR: a block body must end at jr — the target is
// dynamic, so nothing after it may be prefetched into the run.
func TestPredecodeStopsAtJR(t *testing.T) {
	ws := words(insADDIU, insLW, insJR, insADDIU, insADDIU)
	run := predecode(ws, 0)
	if len(run) != 3 {
		t.Fatalf("run length = %d, want 3 (through jr)", len(run))
	}
	if run[2].Op != OpJR || run[2].Rs != 31 {
		t.Fatalf("last instruction = %+v, want jr $ra", run[2])
	}
}

// TestPredecodeStopsAtJAL: jal ends the block even though the return
// address makes the fallthrough a guaranteed future pc — the block after
// the call is its own entry point.
func TestPredecodeStopsAtJAL(t *testing.T) {
	ws := words(insADDIU, insJAL, insLW)
	run := predecode(ws, 0)
	if len(run) != 2 || run[1].Op != OpJAL {
		t.Fatalf("run = %d instructions ending %v, want 2 ending jal", len(run), run[len(run)-1].Op)
	}
	if run[1].Target != 0x100000 {
		t.Fatalf("jal target = %#x, want 0x100000", run[1].Target)
	}
}

// TestPredecodeBackwardBranch: a backward branch (loop latch) terminates
// the run exactly like a forward one; the negative displacement must
// survive the decode round-trip so BranchTarget lands before the block.
func TestPredecodeBackwardBranch(t *testing.T) {
	ws := words(insADDIU, insADDIU, insADDIU, insBack)
	run := predecode(ws, 0)
	if len(run) != 4 || run[3].Op != OpBNE {
		t.Fatalf("run = %d instructions, want 4 ending bne", len(run))
	}
	const branchPC = 0x400000 + 12
	if got := BranchTarget(branchPC, run[3]); got != 0x400004 {
		t.Fatalf("backward BranchTarget = %#x, want 0x400004", got)
	}
}

// TestPredecodeForwardBranchFallthrough: the instructions after a forward
// branch belong to the next block — the run stops at the branch and the
// fallthrough pc is the word right after it.
func TestPredecodeForwardBranchFallthrough(t *testing.T) {
	ws := words(insLW, insFwd, insADDIU, insADDIU)
	run := predecode(ws, 0)
	if len(run) != 2 || run[1].Op != OpBEQ {
		t.Fatalf("run = %d instructions, want 2 ending beq", len(run))
	}
	const branchPC = 0x400000 + 4
	if got := BranchTarget(branchPC, run[1]); got != branchPC+4+2*4 {
		t.Fatalf("forward BranchTarget = %#x, want %#x", got, branchPC+4+2*4)
	}
}

// TestPredecodeTrapsEndBlocks: syscall and break hand control to the
// host, which may rewrite machine state arbitrarily.
func TestPredecodeTrapsEndBlocks(t *testing.T) {
	for _, trap := range []Instruction{insSYS, insBRK} {
		ws := words(insADDIU, trap, insADDIU)
		run := predecode(ws, 0)
		if len(run) != 2 || run[1].Op != trap.Op {
			t.Fatalf("run after %v = %d instructions ending %v, want 2",
				trap.Op, len(run), run[len(run)-1].Op)
		}
	}
}

// TestPredecodeNOPContinues: nop is KindSystem but must not end a block.
func TestPredecodeNOPContinues(t *testing.T) {
	ws := words(insNOP, insNOP, insADDIU, insJR)
	if run := predecode(ws, 0); len(run) != 4 {
		t.Fatalf("run across nops = %d instructions, want 4", len(run))
	}
}

// TestPredecodeLimitBoundary: the limit cuts a run mid-body — fallthrough
// into a block boundary that exists only because of the cap. Also: limit
// beyond len(words), and limit exactly at the terminator.
func TestPredecodeLimitBoundary(t *testing.T) {
	ws := words(insADDIU, insADDIU, insADDIU, insJR)
	if run := predecode(ws, 2); len(run) != 2 {
		t.Fatalf("limit 2: run = %d instructions", len(run))
	}
	if run := predecode(ws, 100); len(run) != 4 {
		t.Fatalf("limit past end: run = %d instructions, want 4", len(run))
	}
	if run := predecode(ws, 4); len(run) != 4 || run[3].Op != OpJR {
		t.Fatalf("limit at terminator: run = %d instructions", len(run))
	}
	if run := predecode(ws, -1); len(run) != 4 {
		t.Fatalf("negative limit: run = %d instructions, want 4", len(run))
	}
}

// TestPredecodeStopsAtZeroAndJunk: zeroed memory and undecodable words
// are data, not code; the run ends before them. So it does before a word
// the fetch declines (a probed pc, a bus fault), which is never decoded.
func TestPredecodeStopsAtZeroAndJunk(t *testing.T) {
	ws := words(insADDIU, insADDIU, insJR)
	out := make([]Instruction, len(ws))
	if n := PredecodeRun(out, func(i int) (uint32, bool) { return ws[i], i < 1 }); n != 1 {
		t.Fatalf("run into a declined fetch = %d instructions, want 1", n)
	}
	zero := []uint32{MustEncode(insADDIU), 0, MustEncode(insADDIU)}
	if run := predecode(zero, 0); len(run) != 1 {
		t.Fatalf("run into zero word = %d instructions, want 1", len(run))
	}
	junk := []uint32{MustEncode(insLW), 0xffffffff}
	if run := predecode(junk, 0); len(run) != 1 {
		t.Fatalf("run into junk word = %d instructions, want 1", len(run))
	}
	if run := predecode(nil, 0); len(run) != 0 {
		t.Fatalf("empty input: run = %d instructions, want 0", len(run))
	}
}
