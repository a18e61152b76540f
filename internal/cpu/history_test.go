package cpu

import (
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/taint"
)

// historyProg is the guest of the history-independence test. After a
// warm-up loop (run before the snapshot) it runs one hot loop three times
// through a subroutine: a clean pass that compiles the loop into a
// superblock, a short pass whose pointer $t1 is tainted, so each entry
// into the trace leaves before its first op, the checked dereference,
// and a last clean pass. The test runs it under the control-data-only
// policy, so the tainted load is checked but never alerts.
const historyProg = `
	.data
buf:	.word 0, 0, 0, 0
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
	la    $t1, buf
	li    $t2, 200
	jal   pass
	la    $t4, buf
	lw    $t1, 0($t4)
	addu  $t1, $t1, $t4
	li    $t2, 4
	jal   pass
	la    $t1, buf
	li    $t2, 200
	jal   pass
` + exitZero + `
pass:
	li    $t3, 0
	li    $t0, 0
hot:
	lw    $t5, 4($t1)
	addu  $t3, $t3, $t5
	addiu $t0, $t0, 1
	bne   $t0, $t2, hot
	jr    $ra
`

// historySnapAt snapshots historyProg inside its warm-up loop.
const historySnapAt = 40

// historyStop is where the armed and covmap forks stop mid-run: inside
// the first clean pass once its trace runs, at an instruction count the
// trace's iterations do not divide, so the trace's entry is clamped by
// the budget there.
const historyStop = historySnapAt + 500

// historyKinds are the fork kinds the history test mixes: a plain fork,
// one armed by InjectAt, and one that attaches a coverage map mid-run.
var historyKinds = []struct {
	name string
	run  func(f *family) (forkResult, *CPU)
}{
	{"plain", func(f *family) (forkResult, *CPU) {
		c, m := f.fork()
		return observe(c, m, c.RunFast(1_000_000), nil), c
	}},
	{"inject", func(f *family) (forkResult, *CPU) {
		c, m := f.fork()
		c.InjectAt(historyStop, func(c *CPU) {
			c.SetReg(isa.RegS7, 1, taint.Word)
		})
		return observe(c, m, c.RunFast(1_000_000), nil), c
	}},
	{"covmap", func(f *family) (forkResult, *CPU) {
		c, m := f.fork()
		if err := c.RunFast(historyStop); err == nil {
			panic("covmap fork halted before its stop")
		}
		cov := new(CovMap)
		c.SetCovMap(cov)
		return observe(c, m, c.RunFast(1_000_000), cov), c
	}},
}

// TestForkHistoryIndependence forks one snapshot 300 times, first in
// sequence and then from two goroutines, mixing plain, armed and covmap
// forks. Every fork must read exactly like the first fork of its kind:
// Stats, pipeline, registers, memory and coverage. Forks publish and
// reuse compiled superblocks through the family's table, armed ones
// included, and each one's traces take bad entries (entries that leave
// at a tainted address before retiring anything, budget clamps) whose
// total over the family passes sbMaxBadEntries many times over; a trace
// that carried what one machine learned about it to the next would show
// here.
func TestForkHistoryIndependence(t *testing.T) {
	const forks = 300
	f := bootFamily(t, historyProg, historySnapAt, taint.PolicyControlDataOnly)
	first := make([]forkResult, len(historyKinds))
	for k, kind := range historyKinds {
		r, c := kind.run(f)
		first[k] = r
		bad := 0
		for _, n := range c.sbBad {
			bad += int(n)
		}
		if r.err != "<nil>" || r.stats.SuperblockRuns == 0 || r.stats.SbDeoptTaintedAddr == 0 {
			t.Fatalf("%s fork does not run the trace and leave it at a tainted address: err %s, %+v", kind.name, r.err, r.stats)
		}
		if kind.name == "inject" && bad <= int(r.stats.SbDeoptTaintedAddr) {
			t.Fatalf("armed fork's trace took %d bad entries, none budget-clamped", bad)
		}
		t.Logf("%s fork: %d bad entries, %d of them at a tainted address", kind.name, bad, r.stats.SbDeoptTaintedAddr)
		if bad*forks <= sbMaxBadEntries {
			t.Fatalf("%s forks take %d bad entries in all, want more than %d", kind.name, bad*forks, sbMaxBadEntries)
		}
	}
	check := func(mode string, i int, got forkResult) {
		k := i % len(historyKinds)
		if got != first[k] {
			t.Errorf("%s fork %d (%s) differs from the first:\n first %+v\n got   %+v", mode, i, historyKinds[k].name, first[k], got)
		}
	}
	for i := 0; i < forks; i++ {
		r, _ := historyKinds[i%len(historyKinds)].run(f)
		check("sequential", i, r)
	}
	var (
		wg      sync.WaitGroup
		results [forks]forkResult
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < forks; i += 2 {
				results[i], _ = historyKinds[i%len(historyKinds)].run(f)
			}
		}(w)
	}
	wg.Wait()
	for i, r := range results {
		check("concurrent", i, r)
	}
}
