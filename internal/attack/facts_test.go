package attack

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/progs"
	"repro/internal/taint"
)

// factChecker holds one image's static facts to what the reference
// interpreter observes. No execution tier consumes the facts, so no
// differential run would notice a wrong one; this checker is their only
// dynamic oracle.
type factChecker struct {
	t       *testing.T
	name    string
	res     *analysis.Result
	ins     []isa.Instruction // the decoded text word of every fact-bearing slot
	checked int               // fact-bearing retirements checked
	failed  int
}

// maxFactFailures bounds the errors one run reports.
const maxFactFailures = 5

// attach arms the checker on m as a self-re-arming injection, so it runs
// at every instruction boundary of the reference interpreter, before the
// instruction there retires. m must boot with Reference set.
func (fc *factChecker) attach(m *Machine) {
	facts := fc.res.Facts()
	fc.ins = make([]isa.Instruction, len(facts))
	for i, f := range facts {
		if f == 0 {
			continue
		}
		word, _, err := m.Mem.LoadWord(fc.res.TextBase + uint32(i)*4)
		if err != nil {
			fc.t.Fatalf("%s: fetch fact word %d: %v", fc.name, i, err)
		}
		if fc.ins[i], err = isa.Decode(word); err != nil {
			fc.t.Fatalf("%s: fact on undecodable word %#08x: %v", fc.name, word, err)
		}
	}
	var step func(c *cpu.CPU)
	step = func(c *cpu.CPU) {
		fc.check(c)
		c.InjectAt(c.Stats().Instructions+1, step)
	}
	m.CPU.InjectAt(m.CPU.Stats().Instructions, step)
}

// check asserts the facts of the instruction about to retire at c's pc:
// FactAddrClean means its address or jump-target register is untainted,
// FactOperandsClean that both of its taint sources are.
func (fc *factChecker) check(c *cpu.CPU) {
	pc := c.PC()
	facts := fc.res.Facts()
	i := (pc - fc.res.TextBase) / 4
	if pc < fc.res.TextBase || pc&3 != 0 || i >= uint32(len(facts)) || facts[i] == 0 {
		return
	}
	fc.checked++
	in := fc.ins[i]
	if facts[i]&analysis.FactAddrClean != 0 && c.RegTaint(in.Rs) != taint.None {
		fc.fail(c, in, in.Rs, "FactAddrClean")
	}
	if facts[i]&analysis.FactOperandsClean != 0 {
		a, b := cpu.TaintSources(in)
		for _, r := range []isa.Register{a, b} {
			if c.RegTaint(r) != taint.None {
				fc.fail(c, in, r, "FactOperandsClean")
			}
		}
	}
}

func (fc *factChecker) fail(c *cpu.CPU, in isa.Instruction, r isa.Register, fact string) {
	if fc.failed++; fc.failed <= maxFactFailures {
		fc.t.Errorf("%s: %s at %#08x (%s) after %d instructions, but %v carries taint %v",
			fc.name, fact, c.PC(), isa.Disassemble(in, c.PC()), c.Stats().Instructions, r, c.RegTaint(r))
	}
}

// newFactChecker analyzes m's image and arms a checker on it.
func newFactChecker(t *testing.T, name string, m *Machine) *factChecker {
	t.Helper()
	res := analyzeImage(t, m.Image)
	if res.Bailed {
		t.Logf("%s: analysis bailed (%s); no facts to check", name, res.BailReason)
	}
	fc := &factChecker{t: t, name: name, res: res}
	fc.attach(m)
	return fc
}

// TestStaticFactsHoldOnReference single-steps the reference interpreter
// through every corpus program (with the differential harness's generic
// inputs) and every attack scenario, checking before each retirement that
// the word's static facts hold: no fact-bearing address, jump-target or
// operand register carries taint there.
func TestStaticFactsHoldOnReference(t *testing.T) {
	checked := 0
	for _, p := range progs.All() {
		t.Run(p.Name, func(t *testing.T) {
			m, err := Boot(p, Options{
				Policy:    taint.PolicyPointerTaintedness,
				Stdin:     []byte("differential input 0123456789 %n %x\n"),
				Files:     map[string][]byte{"/input": progs.SpecInput(p.Name, 1)},
				Budget:    30_000_000,
				Reference: true,
			})
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			fc := newFactChecker(t, p.Name, m)
			_ = m.Run() // any outcome will do: the checker judges each step
			checked += fc.checked
		})
	}
	for _, s := range Scenarios() {
		t.Run(s.Name, func(t *testing.T) {
			m, err := s.Boot(Options{Policy: taint.PolicyPointerTaintedness, Reference: true})
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			fc := newFactChecker(t, s.Name, m)
			out, err := s.Session(m)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			if !out.Detected {
				t.Fatalf("scenario not detected: %s", out)
			}
			checked += fc.checked
		})
	}
	if checked == 0 {
		t.Fatal("no fact-bearing instruction retired: the check is vacuous")
	}
}
