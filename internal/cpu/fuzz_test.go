// Fuzzed equivalence check between the two interpreters: arbitrary byte
// strings are loaded as a text segment and executed under both the
// reference Step loop and the RunFast block stepper from an identical
// initial state — part clean, part tainted — and the final machine states
// must match bit for bit. The seed corpus is the text of the three §5.1.1
// synthetic attack programs, a handwritten mix of loads, stores,
// branches, and tainted arithmetic, and OpcodeLoop, which covers every
// dense op code of the fast tiers.
package cpu_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/taint"
)

// fuzzHandler gives fuzzed code an exit syscall and a taint source, like
// the cpu unit tests' handler: $v0=1 exits with $a0, $v0=100 taints $a1
// bytes at $a0 (clamped — fuzzed register contents can be huge).
type fuzzHandler struct {
	m *mem.Memory
}

func (h *fuzzHandler) Syscall(c *cpu.CPU) error {
	switch c.Reg(isa.RegV0) {
	case 1:
		c.Halt(int32(c.Reg(isa.RegA0)))
		return nil
	case 100:
		n := int(c.Reg(isa.RegA1))
		if n > 4096 {
			n = 4096
		}
		h.m.TaintRange(c.Reg(isa.RegA0), n)
		return nil
	}
	return &cpu.Fault{PC: c.PC(), Reason: "unknown fuzz syscall"}
}

// bootFuzz loads code as the text segment and arranges a deterministic
// mixed-taint initial state: a data buffer whose middle 32 bytes are
// tainted, clean and tainted pointer registers, and a tainted-halfword
// register — so fuzzed instructions can hit the clean short-circuit, the
// full propagation path, and all three detectors.
func bootFuzz(code []byte) (*cpu.CPU, *mem.Memory) {
	im := &asm.Image{
		Segments: []asm.Segment{{Addr: asm.TextBase, Data: code}},
		Entry:    asm.TextBase,
	}
	m := mem.New()
	c := cpu.New(cpu.Config{Bus: m, Policy: taint.PolicyPointerTaintedness, Handler: &fuzzHandler{m: m}})
	c.LoadImage(m, im)
	buf := make([]byte, 256)
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
	m.WriteBytes(asm.DataBase, buf, false)
	m.TaintRange(asm.DataBase+64, 32)
	c.SetReg(isa.RegA0, asm.DataBase, taint.None)
	c.SetReg(isa.RegA1, asm.DataBase+64, taint.Word)
	c.SetReg(isa.RegA2, asm.DataBase+128, taint.ForWidth(2))
	c.SetReg(isa.RegT0, 0x1234, taint.None)
	return c, m
}

// handcraftedSeed is a straight-line program exercising tainted loads,
// tainted arithmetic, stores, compares, and a clean exit.
const handcraftedSeed = `
	main:
		lw $t1, 64($a0)
		add $t2, $t1, $t0
		sw $t2, 128($a0)
		lw $t3, 0($a0)
		sltu $t4, $t3, $t1
		sll $t5, $t2, 2
		beq $t4, $zero, skip
		xor $t6, $t1, $t5
	skip:
		li $v0, 1
		li $a0, 0
		syscall
	`

// seedText assembles src and returns its text segment.
func seedText(f *testing.F, src string) []byte {
	im, err := asm.AssembleString(src)
	if err != nil {
		f.Fatalf("assemble seed: %v", err)
	}
	return im.Segments[0].Data
}

// FuzzStepEquivalence is the fuzzed differential: for any text segment,
// both interpreters must reach the same terminal state.
func FuzzStepEquivalence(f *testing.F) {
	for _, name := range []string{"exp1", "exp2", "exp3"} {
		p, ok := progs.ByName(name)
		if !ok {
			f.Fatalf("corpus program %s missing", name)
		}
		im, err := p.Build()
		if err != nil {
			f.Fatalf("build %s: %v", name, err)
		}
		f.Add(im.Segments[0].Data)
	}
	f.Add(seedText(f, handcraftedSeed))
	f.Add(seedText(f, cpu.OpcodeLoop))

	const budget = 2000
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) < 4 {
			t.Skip("no instructions")
		}
		if len(code) > 4096 {
			code = code[:4096]
		}
		code = code[:len(code)&^3]

		ref, refMem := bootFuzz(code)
		refErr := ref.Run(budget)
		fast, fastMem := bootFuzz(code)
		fastErr := fast.RunFast(budget)

		if got, want := errString(fastErr), errString(refErr); got != want {
			t.Fatalf("run error: fast %q, reference %q", got, want)
		}
		if ref.PC() != fast.PC() {
			t.Errorf("pc: fast %#08x, reference %#08x", fast.PC(), ref.PC())
		}
		rh, rc := ref.Halted()
		fh, fc := fast.Halted()
		if rh != fh || rc != fc {
			t.Errorf("halt state: fast (%v, %d), reference (%v, %d)", fh, fc, rh, rc)
		}
		for r := 0; r < isa.NumRegisters; r++ {
			reg := isa.Register(r)
			if ref.Reg(reg) != fast.Reg(reg) {
				t.Errorf("%v: fast %#x, reference %#x", reg, fast.Reg(reg), ref.Reg(reg))
			}
			if ref.RegTaint(reg) != fast.RegTaint(reg) {
				t.Errorf("%v taint: fast %v, reference %v", reg, fast.RegTaint(reg), ref.RegTaint(reg))
			}
		}
		rs, fs := ref.Stats(), fast.Stats()
		if rs.Instructions != fs.Instructions {
			t.Errorf("instructions: fast %d, reference %d", fs.Instructions, rs.Instructions)
		}
		if fs.CleanSkips+fs.TaintedSteps != fs.Instructions {
			t.Errorf("fast: CleanSkips(%d) + TaintedSteps(%d) != Instructions(%d)",
				fs.CleanSkips, fs.TaintedSteps, fs.Instructions)
		}
		if ref.Pipe() != fast.Pipe() {
			t.Errorf("pipeline: fast %+v, reference %+v", fast.Pipe(), ref.Pipe())
		}
		if rf, ff := refMem.Fingerprint(), fastMem.Fingerprint(); rf != ff {
			t.Errorf("memory fingerprint: fast %#x, reference %#x", ff, rf)
		}
	})
}

// prepareInputStreamSnapshot boots the exp1 stack-smash victim on the
// requested engine (with provenance on, so alerts carry origin chains)
// and snapshots it at the input point, returning the snapshot and a
// per-fork instruction budget generous enough for any mutated input.
func prepareInputStreamSnapshot(f *testing.F, reference bool) (*attack.Snapshot, uint64) {
	f.Helper()
	sc, ok := attack.ScenarioByName("exp1-stack")
	if !ok {
		f.Fatal("exp1-stack scenario missing")
	}
	m, err := sc.Boot(attack.Options{Policy: taint.PolicyPointerTaintedness, Reference: reference, Provenance: true})
	if err != nil {
		f.Fatalf("prepare: %v", err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		f.Fatalf("snapshot: %v", err)
	}
	return snap, snap.Stats().Instructions + 1_000_000
}

// FuzzInputStream is the whole-machine differential: an arbitrary guest
// input stream is delivered through a snapshot fork of the booted exp1
// victim on both engines, and the classified outcome (alert identity and
// provenance included), the retired-instruction count, and the recorded
// branch-edge coverage features must be identical. FuzzStepEquivalence
// above fuzzes the instruction space; this fuzzes the input space the
// attack fuzzing farm (internal/fuzz) explores, pinning the property its
// determinism rests on.
func FuzzInputStream(f *testing.F) {
	f.Add([]byte("hi\n"))
	f.Add([]byte("benign input\n"))
	f.Add(bytes.Repeat([]byte{'a'}, 24)) // the classic overflow filler
	f.Add([]byte{0, 0xff, 'a', 0x61, 0x61, 0x61, 0x61, '\n'})

	fastSnap, budget := prepareInputStreamSnapshot(f, false)
	refSnap, _ := prepareInputStreamSnapshot(f, true)

	run := func(snap *attack.Snapshot, input []byte) (string, uint64, []uint32) {
		var cm cpu.CovMap
		m := snap.Fork()
		m.SetBudget(budget)
		m.CPU.SetCovMap(&cm)
		m.Kernel.SetStdin(input)
		out := attack.Classify(m.Run())
		detail := out.String()
		if out.Alert != nil {
			detail += "\n" + out.Alert.Error()
			if out.Alert.Provenance != nil {
				detail += "\n" + out.Alert.Provenance.String()
			}
		}
		if out.Fault != nil {
			detail += "\n" + fmt.Sprintf("fault@%#08x: %s", out.Fault.PC, out.Fault.Reason)
		}
		return detail, m.CPU.Stats().Instructions, cm.Features(nil)
	}

	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 4096 {
			input = input[:4096]
		}
		fastOut, fastInstrs, fastFeats := run(fastSnap, input)
		refOut, refInstrs, refFeats := run(refSnap, input)
		if fastOut != refOut {
			t.Errorf("outcome diverged:\n--- fast\n%s\n--- reference\n%s", fastOut, refOut)
		}
		if fastInstrs != refInstrs {
			t.Errorf("instructions: fast %d, reference %d", fastInstrs, refInstrs)
		}
		if len(fastFeats) != len(refFeats) {
			t.Fatalf("coverage features: fast %d, reference %d", len(fastFeats), len(refFeats))
		}
		for i := range fastFeats {
			if fastFeats[i] != refFeats[i] {
				t.Fatalf("coverage feature %d: fast %#x, reference %#x", i, fastFeats[i], refFeats[i])
			}
		}
	})
}
