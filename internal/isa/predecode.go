package isa

// EndsBlock reports whether the opcode terminates a straight-line run of
// instructions: every control transfer (branch, jump, register jump) and
// every instruction that traps into the host (SYSCALL, BREAK). A predecoded
// basic block never extends past one of these, so a block entered at its
// first instruction retires in order with no internal PC redirection.
func (o Opcode) EndsBlock() bool {
	switch o.Kind() {
	case KindBranch, KindJump, KindJumpReg:
		return true
	case KindSystem:
		return o == OpSYSCALL || o == OpBREAK
	}
	return false
}

// PredecodeRun decodes one straight-line run (a basic block body) into out
// and returns its length, fetching and decoding each word once. fetch(i)
// supplies the run's i-th word, or false where the run must end before it.
// Decoding stops after the first block-ending instruction, before the
// first undecodable or null word (zeroed memory is not code), or when out
// is full.
func PredecodeRun(out []Instruction, fetch func(i int) (uint32, bool)) int {
	for i := range out {
		w, ok := fetch(i)
		if !ok || w == 0 {
			return i
		}
		in, err := Decode(w)
		if err != nil {
			return i
		}
		out[i] = in
		if in.Op.EndsBlock() {
			return i + 1
		}
	}
	return len(out)
}
