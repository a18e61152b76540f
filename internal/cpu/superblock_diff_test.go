// C-level differential coverage for the superblock tier: compiled guest
// code (stack spills, register reuse, whatever the front end emits) must
// retire with identical architectural counters and pipeline timing under
// the reference interpreter and the superblock-enabled fast path. The
// asm scenarios in superblock_test.go pin the trace shapes; these pin
// the tier against realistic codegen.
package cpu_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
)

// sbCleanLoopSrc is a register-pressure hot loop with no memory taint:
// the whole loop should fuse and never deopt.
const sbCleanLoopSrc = `
int main() {
  unsigned s = 7;
  for (int i = 0; i < 100000; i++) { s = s + i*3 - (s>>1); }
  return 0;
}
`

// sbTaintedLoopSrc scans a tainted buffer: every iteration's load is a
// taint birth and its compare untaints the loaded byte, which the trace
// carries inline.
const sbTaintedLoopSrc = `
char buf[64];
int main() {
  int n = read(0, buf, 64);
  int t = 0;
  for (int i = 0; i < 20000; i++) {
    if (buf[i & 31] == 'x') t++;
  }
  return 0;
}
`

func sbRunC(t *testing.T, src string, stdin []byte, ref bool) (*core.Machine, error) {
	t.Helper()
	m, err := core.BuildC(core.Config{Budget: 1 << 40, Reference: ref}, src)
	if err != nil {
		t.Fatal(err)
	}
	if stdin != nil {
		m.SetStdin(stdin)
	}
	return m, m.Run()
}

func sbCompareC(t *testing.T, src string, stdin []byte) *core.Machine {
	t.Helper()
	ref, refErr := sbRunC(t, src, stdin, true)
	fast, fastErr := sbRunC(t, src, stdin, false)
	if refErr != nil || fastErr != nil {
		t.Fatalf("run: reference %v, fast %v", refErr, fastErr)
	}
	rs, fs := ref.Stats(), fast.Stats()
	if rs.Instructions != fs.Instructions || rs.Loads != fs.Loads ||
		rs.Stores != fs.Stores || rs.Branches != fs.Branches ||
		rs.Alerts != fs.Alerts {
		t.Errorf("stats differ:\nreference %+v\nfast      %+v", rs, fs)
	}
	if rp, fp := ref.Pipeline(), fast.Pipeline(); rp != fp {
		t.Errorf("pipeline differs:\nreference %+v\nfast      %+v", rp, fp)
	}
	return fast
}

func TestSuperblockCDifferentialCleanLoop(t *testing.T) {
	fast := sbCompareC(t, sbCleanLoopSrc, nil)
	s := fast.Stats()
	if s.SuperblockInstrs == 0 {
		t.Errorf("superblock tier never engaged on the clean hot loop")
	}
	if s.SuperblockDeopts != 0 {
		t.Errorf("clean loop deopted %d times, want 0", s.SuperblockDeopts)
	}
}

func TestSuperblockCDifferentialTaintedLoad(t *testing.T) {
	fast := sbCompareC(t, sbTaintedLoopSrc, []byte("xyxyxyxyxyxyxyxyxyxyxyxyxyxyxyxy"))
	s := fast.Stats()
	if s.SuperblockDeopts != 0 {
		t.Errorf("tainted scan deopted %d times, want 0: %+v", s.SuperblockDeopts, s.DeoptReasons())
	}
	if s.SuperblockInstrs < s.Instructions/2 {
		t.Errorf("superblocks retired %d of %d instructions; the tainted scan should stay in its trace",
			s.SuperblockInstrs, s.Instructions)
	}
	checkDeoptBreakdown(t, "fast", s)
}

// sbMisalignedStoreSrc is a hot loop whose sw turns misaligned on its
// 201st pass, long after the loop fused: $t1 = $a0 + 2 once $s0 reaches
// 200. Both engines raise the same alignment fault there.
const sbMisalignedStoreSrc = `
main:
	li    $s0, 0
	li    $s1, 300
loop:
	sltiu $t0, $s0, 200
	xori  $t0, $t0, 1
	sll   $t0, $t0, 1
	addu  $t1, $a0, $t0
	sw    $s0, 0($t1)
	addiu $s0, $s0, 1
	bne   $s0, $s1, loop
`

// TestSuperblockStoreFaultDeoptReason pins the attribution of a store's
// guard exit: a misaligned store is a MemFault deopt (as for loads), not
// a SelfModify one, although the trace folds both into one guard.
func TestSuperblockStoreFaultDeoptReason(t *testing.T) {
	im, err := asm.AssembleString(sbMisalignedStoreSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := bootFuzz(im.Segments[0].Data)
	refErr := ref.Run(100_000)
	fast, _ := bootFuzz(im.Segments[0].Data)
	fastErr := fast.RunFast(100_000)
	if refErr == nil || errString(fastErr) != errString(refErr) {
		t.Fatalf("run error: fast %q, reference %q; want the same alignment fault", errString(fastErr), errString(refErr))
	}
	rs, fs := ref.Stats(), fast.Stats()
	if ref.PC() != fast.PC() || rs.Instructions != fs.Instructions || rs.Stores != fs.Stores {
		t.Errorf("state differs: pc %#x/%#x, stats\nreference %+v\nfast      %+v", ref.PC(), fast.PC(), rs, fs)
	}
	if fs.SuperblockInstrs == 0 {
		t.Fatal("superblock tier never engaged")
	}
	if fs.SbDeoptMemFault != 1 || fs.SbDeoptSelfModify != 0 {
		t.Errorf("deopts: mem-fault %d, self-modify %d; want 1, 0 (breakdown %+v)",
			fs.SbDeoptMemFault, fs.SbDeoptSelfModify, fs.DeoptReasons())
	}
	checkDeoptBreakdown(t, "fast", fs)
}
