package cpu

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/taint"
)

// familyProg is the guest of the block-table differential test. A warm-up
// loop runs before the snapshot; after it the fork may patch its own text
// ($s7 != 0), runs a superblock-hot loop over clean memory, then loads a
// tainted word and jumps through it, ending in a tainted-jump alert.
var familyProg = func() string {
	patch, err := isa.Encode(isa.Instruction{Op: isa.OpADDIU, Rs: isa.RegZero, Rt: isa.RegS6, Imm: 42})
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf(`
	.data
buf:	.word 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
	.text
main:
	la    $a0, buf
	li    $a1, 4
	li    $v0, 100
	syscall
	li    $s0, 0
	li    $s1, 40
warm:
	addiu $s0, $s0, 1
	bne   $s0, $s1, warm
	bne   $s7, $zero, patch
back:
	la    $t4, buf
target:
	addiu $s6, $zero, 1
	li    $t0, 0
	li    $t2, 300
hot:
	andi  $t3, $t0, 7
	sll   $t3, $t3, 2
	addu  $t5, $t4, $t3
	lw    $t6, 16($t5)
	addiu $t6, $t6, 1
	sw    $t6, 16($t5)
	addiu $t0, $t0, 1
	bne   $t0, $t2, hot
	lw    $t7, 0($t4)
	addu  $t8, $t7, $s6
	jr    $t8
patch:
	la    $t0, target
	li    $t1, %#x
	sw    $t1, 0($t0)
	j     back
`, patch)
}()

// familySnapAt is the retired-instruction count at which the origin is
// snapshotted: inside the warm-up loop, so forks resume mid-block on
// inherited blocks.
const familySnapAt = 40

// family is one snapshot of familyProg and the image it runs.
type family struct {
	im   *asm.Image
	snap *CPU
	mem  *mem.Memory
}

// newFamily boots familyProg, runs it to familySnapAt, and snapshots it
// the way attack.Machine.Snapshot does: a frozen CPU over frozen memory
// that only forks.
func newFamily(t *testing.T) *family {
	return bootFamily(t, familyProg, familySnapAt, taint.PolicyPointerTaintedness)
}

// bootFamily boots src under policy, runs it to at retired instructions,
// and snapshots it as newFamily does.
func bootFamily(t *testing.T, src string, at uint64, policy taint.Policy) *family {
	t.Helper()
	im, err := asm.AssembleString(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New()
	c := New(Config{Bus: m, Policy: policy, Handler: &testHandler{memory: m}, Image: im})
	c.LoadImage(m, im)
	if err := c.RunFast(at); err == nil {
		t.Fatal("origin halted before the snapshot point")
	}
	c.ShareText()
	sm := m.Fork()
	return &family{im: im, snap: c.Fork(sm, &testHandler{memory: sm}), mem: sm}
}

// fork stamps out one machine of the family.
func (f *family) fork() (*CPU, *mem.Memory) {
	fm := f.mem.Fork()
	return f.snap.Fork(fm, &testHandler{memory: fm}), fm
}

// forkResult is everything a fork's run can be observed by.
type forkResult struct {
	err   string
	stats Stats
	pipe  PipelineStats
	mem   uint64
	regs  [isa.NumRegisters]uint32
	taint [isa.NumRegisters]taint.Vec
	cov   uint64
}

func observe(c *CPU, m *mem.Memory, err error, cov *CovMap) forkResult {
	r := forkResult{err: fmt.Sprint(err), stats: c.Stats(), pipe: c.Pipe(), mem: m.Fingerprint()}
	for i := range r.regs {
		r.regs[i], r.taint[i] = c.Reg(isa.Register(i)), c.RegTaint(isa.Register(i))
	}
	if cov != nil {
		h := fnv.New64a()
		h.Write(cov.counts[:])
		r.cov = h.Sum64()
	}
	return r
}

// forkKind is one way a fork can be set up before (or while) it runs.
type forkKind struct {
	name string
	run  func(t *testing.T, f *family) forkResult
}

// runFork forks f, lets arm configure the fork, and runs it to its end.
func runFork(f *family, arm func(*CPU)) forkResult {
	c, m := f.fork()
	if arm != nil {
		arm(c)
	}
	return observe(c, m, c.RunFast(1_000_000), nil)
}

var forkKinds = []forkKind{
	{"plain", func(t *testing.T, f *family) forkResult { return runFork(f, nil) }},
	{"probe", func(t *testing.T, f *family) forkResult {
		return runFork(f, func(c *CPU) {
			c.AddProbe(f.im.Symbols["hot"], func(c *CPU) {
				c.SetReg(isa.RegS5, c.Reg(isa.RegS5)+1, taint.None)
			})
		})
	}},
	{"inject", func(t *testing.T, f *family) forkResult {
		return runFork(f, func(c *CPU) {
			c.InjectAt(familySnapAt+400, func(c *CPU) {
				c.SetReg(isa.RegT2, c.Reg(isa.RegT2), taint.Word)
			})
		})
	}},
	{"self-modify", func(t *testing.T, f *family) forkResult {
		return runFork(f, func(c *CPU) { c.SetReg(isa.RegS7, 1, taint.None) })
	}},
	{"covmap", func(t *testing.T, f *family) forkResult {
		c, m := f.fork()
		cov := new(CovMap)
		c.SetCovMap(cov)
		return observe(c, m, c.RunFast(1_000_000), cov)
	}},
	{"snapshot-of-fork", func(t *testing.T, f *family) forkResult {
		// Run a fork into the hot loop, snapshot it, and run a fork of that.
		mid, midMem := f.fork()
		if err := mid.RunFast(familySnapAt + 600); err == nil {
			t.Fatal("intermediate fork halted before its snapshot point")
		}
		mid.ShareText()
		sub := &family{im: f.im, snap: mid, mem: midMem}
		return runFork(sub, nil)
	}},
}

// TestBlockTableWarmMatchesCold is the block-table differential: for every
// fork kind, a fork run on a cold table (the snapshot's blocks only) and
// the same fork run after siblings of every kind have warmed the family's
// table must be indistinguishable — alerts, Stats (block and superblock
// counters included), pipeline cycles, registers, memory and coverage.
// Forks that leave the family (probe, self-modify) must also leave their
// siblings' next sessions unchanged.
func TestBlockTableWarmMatchesCold(t *testing.T) {
	coldPlain := forkKinds[0].run(t, newFamily(t))
	if coldPlain.stats.Alerts != 1 || coldPlain.stats.SuperblockRuns == 0 || coldPlain.stats.BlockMisses == 0 {
		t.Fatalf("plain fork does not exercise alerts, superblocks and first dispatches: %+v", coldPlain.stats)
	}
	for _, k := range forkKinds {
		t.Run(k.name, func(t *testing.T) {
			cold := k.run(t, newFamily(t))
			warm := newFamily(t)
			for _, w := range forkKinds {
				w.run(t, warm)
			}
			if got := k.run(t, warm); got != cold {
				t.Errorf("warm table diverges from cold:\n cold %+v\n warm %+v", cold, got)
			}
			published := warm.snap.text.ords.Load()
			if got := forkKinds[0].run(t, warm); got != coldPlain {
				t.Errorf("sibling session changed after a %s fork:\n cold %+v\n now  %+v", k.name, coldPlain, got)
			}
			if now := warm.snap.text.ords.Load(); now != published {
				t.Errorf("a plain fork of a warm family published %d new blocks, want 0", now-published)
			}
		})
	}
}

// TestForkLeavesFamilyOnBlockInputChange: a fork that changes a block
// input leaves for a private table seeded with exactly the blocks it had
// dispatched, while a fork that does not stays in the family.
func TestForkLeavesFamilyOnBlockInputChange(t *testing.T) {
	f := newFamily(t)
	stay, _ := f.fork()
	stay.SetCovMap(new(CovMap))
	if stay.text != f.snap.text {
		t.Errorf("SetCovMap left the family")
	}
	stay.HostWrote(f.im.Symbols["target"], 0)
	if stay.text != f.snap.text {
		t.Errorf("an empty host write left the family")
	}
	leave, _ := f.fork()
	leave.AddProbe(f.im.Symbols["hot"], func(*CPU) {})
	if leave.text == f.snap.text || leave.text.shared {
		t.Fatalf("AddProbe kept the shared table")
	}
	wrote, _ := f.fork()
	wrote.HostWrote(f.im.Symbols["target"], 4)
	if wrote.text == f.snap.text {
		t.Errorf("a host write into text kept the shared table")
	}
	seeded, _ := f.fork()
	seeded.ownText()
	for i := range seeded.text.slots {
		idx := uint32(i)
		if got, want := seeded.text.slots[i].block.Load() != nil, f.snap.seenAt(idx); got != want {
			t.Errorf("word %d: private block present %v, snapshot saw it %v", i, got, want)
		}
	}
}

// TestArmedForkStaysInFamily: arming an injection changes no block input,
// so a fork armed before its first run or mid-run keeps its family's
// table and its first-dispatch record. Its twin, an unarmed sibling that
// pauses at the same instruction counts, has already published every
// block the armed fork dispatches: the armed fork builds none of them and
// counts the same first dispatches.
func TestArmedForkStaysInFamily(t *testing.T) {
	const fire = familySnapAt + 700
	for _, armAt := range []uint64{0, familySnapAt + 600} {
		t.Run(fmt.Sprintf("arm-at-%d", armAt), func(t *testing.T) {
			f := newFamily(t)
			run := func(armed bool) *CPU {
				c, _ := f.fork()
				if armAt != 0 {
					if err := c.RunFast(armAt); err == nil {
						t.Fatal("fork halted before its arming point")
					}
				}
				if armed {
					// The injection taints a register the guest never
					// reads, so the armed run takes its twin's path.
					c.InjectAt(fire, func(c *CPU) {
						c.SetReg(isa.RegS5, c.Reg(isa.RegS5), taint.Word)
					})
					if c.text != f.snap.text {
						t.Fatalf("arming left the family's table")
					}
				} else if err := c.RunFast(fire); err == nil {
					t.Fatal("twin halted before the trigger count")
				}
				if err := c.RunFast(1_000_000); err == nil {
					t.Fatal("fork ran to completion without its alert")
				}
				return c
			}
			twin := run(false)
			published := f.snap.text.ords.Load()
			armed := run(true)
			if armed.text != f.snap.text {
				t.Errorf("the armed run left the family's table")
			}
			if now := f.snap.text.ords.Load(); now != published {
				t.Errorf("the armed fork built %d blocks its twin had published", now-published)
			}
			if got, want := armed.Stats().BlockMisses, twin.Stats().BlockMisses; got != want {
				t.Errorf("armed fork counted %d first dispatches, its twin %d", got, want)
			}
		})
	}
}
