package analysis

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/progs"
	"repro/internal/taint"
)

func mustAnalyze(t *testing.T, src string, prop taint.Propagator) (*asm.Image, *Result) {
	t.Helper()
	im, err := asm.AssembleString(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	res, err := Analyze(im, prop)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return im, res
}

func verdictAtSym(t *testing.T, im *asm.Image, res *Result, sym string, off uint32) Verdict {
	t.Helper()
	a, ok := im.Symbols[sym]
	if !ok {
		t.Fatalf("symbol %q missing", sym)
	}
	return res.VerdictAt(a + off)
}

// A straight-line program touching only constants and globals: every
// dereference must be provably clean and carry fact bits.
func TestAllCleanProgram(t *testing.T) {
	im, res := mustAnalyze(t, `
	.data
buf:	.word 0, 0, 0, 0
	.text
_start:
	la $t0, buf
loadw:	lw $t1, 0($t0)
	addiu $t1, $t1, 1
storew:	sw $t1, 4($t0)
	li $v0, 1
	syscall
`, taint.Propagator{})
	if res.Bailed {
		t.Fatalf("bailed: %s", res.BailReason)
	}
	if v := verdictAtSym(t, im, res, "loadw", 0); v != ProvablyClean {
		t.Fatalf("loadw verdict = %v, want ProvablyClean", v)
	}
	if v := verdictAtSym(t, im, res, "storew", 0); v != ProvablyClean {
		t.Fatalf("storew verdict = %v, want ProvablyClean", v)
	}
	facts := res.Facts()
	i := int((im.Symbols["loadw"] - res.TextBase) / 4)
	if facts[i]&FactAddrClean == 0 {
		t.Fatalf("loadw missing FactAddrClean")
	}
}

// A read() into a global buffer taints it; a pointer loaded from the
// buffer and dereferenced must be MayDereferenceTainted, and the chain
// must name the input seed.
func TestReadSeedsTaint(t *testing.T) {
	im, res := mustAnalyze(t, `
	.data
buf:	.word 0, 0, 0, 0
	.text
_start:
	li $v0, 3          # SYS_READ
	li $a0, 0
	la $a1, buf
	li $a2, 16
	syscall
	la $t0, buf
	lw $t1, 0($t0)     # t1 = tainted word from input
deref:	lw $t2, 0($t1)     # dereference tainted pointer
	li $v0, 1
	syscall
`, taint.Propagator{})
	if res.Bailed {
		t.Fatalf("bailed: %s", res.BailReason)
	}
	if v := verdictAtSym(t, im, res, "deref", 0); v != MayDereferenceTainted {
		t.Fatalf("deref verdict = %v, want MayDereferenceTainted", v)
	}
	chain := res.ChainAt(im.Symbols["deref"])
	if !strings.Contains(chain, "read") {
		t.Fatalf("chain %q does not mention the input seed", chain)
	}
	// The read is bounded to buf[0..16): an unrelated global must stay
	// clean — verified implicitly by loadw-style sites in other tests.
}

// A bounded read must not taint a global outside the buffer.
func TestBoundedReadLeavesNeighborClean(t *testing.T) {
	im, res := mustAnalyze(t, `
	.data
buf:	.word 0, 0
other:	.word 42
	.text
_start:
	li $v0, 3
	li $a0, 0
	la $a1, buf
	li $a2, 8
	syscall
	la $t0, other
loado:	lw $t1, 0($t0)
deref:	lw $t2, 0($t1)
	li $v0, 1
	syscall
`, taint.Propagator{})
	if v := verdictAtSym(t, im, res, "loado", 0); v != ProvablyClean {
		t.Fatalf("loado verdict = %v, want ProvablyClean (address is a constant)", v)
	}
	// other's VALUE stayed clean, so dereferencing it is also clean.
	if v := verdictAtSym(t, im, res, "deref", 0); v != ProvablyClean {
		t.Fatalf("deref of clean global's value = %v, want ProvablyClean", v)
	}
}

// An unbounded read (length from input) must taint upward from the
// buffer, catching overflow into following regions.
func TestUnboundedReadTaintsUpward(t *testing.T) {
	im, res := mustAnalyze(t, `
	.data
len:	.word 0
buf:	.word 0, 0
above:	.word 7
	.text
_start:
	li $v0, 3
	li $a0, 0
	la $a1, len
	li $a2, 4
	syscall
	la $t0, len
	lw $a2, 0($t0)     # length now tainted/unknown
	li $v0, 3
	li $a0, 0
	la $a1, buf
	syscall            # unbounded read
	la $t0, above
	lw $t1, 0($t0)
deref:	lw $t2, 0($t1)     # above may be clobbered by the read
	li $v0, 1
	syscall
`, taint.Propagator{})
	if v := verdictAtSym(t, im, res, "deref", 0); v != MayDereferenceTainted {
		t.Fatalf("deref after unbounded read = %v, want MayDereferenceTainted", v)
	}
}

// Compare untaint: slt cleans its operands under the paper rules, and
// DisableCompareUntaint turns that off.
func TestCompareUntaintGate(t *testing.T) {
	src := `
	.data
buf:	.word 0
	.text
_start:
	li $v0, 3
	li $a0, 0
	la $a1, buf
	li $a2, 4
	syscall
	la $t0, buf
	lw $t1, 0($t0)
	slt $t3, $t1, $t2  # untaints t1 under default rules
deref:	lw $t4, 0($t1)
	li $v0, 1
	syscall
`
	im, res := mustAnalyze(t, src, taint.Propagator{})
	if v := verdictAtSym(t, im, res, "deref", 0); v != ProvablyClean {
		t.Fatalf("deref after compare untaint = %v, want ProvablyClean", v)
	}
	im2, res2 := mustAnalyze(t, src, taint.Propagator{DisableCompareUntaint: true})
	if v := verdictAtSym(t, im2, res2, "deref", 0); v != MayDereferenceTainted {
		t.Fatalf("deref with untaint disabled = %v, want MayDereferenceTainted", v)
	}
}

// Stack discipline across a call: a leaf callee that follows the
// generated prologue/epilogue returns with the caller's $sp/$fp intact,
// so the caller's subsequent stack stores stay provably clean.
func TestCallPreservesStackFacts(t *testing.T) {
	im, res := mustAnalyze(t, `
	.text
_start:
	addiu $sp, $sp, -16
	sw $ra, 12($sp)
	jal leaf
	lw $ra, 12($sp)
post:	sw $t0, 0($sp)     # must still be provably clean
	li $v0, 1
	syscall

leaf:
	addiu $sp, $sp, -8
	sw $t1, 0($sp)
	lw $t1, 0($sp)
	addiu $sp, $sp, 8
	jr $ra
`, taint.Propagator{})
	if res.Bailed {
		t.Fatalf("bailed: %s", res.BailReason)
	}
	if v := verdictAtSym(t, im, res, "post", 0); v != ProvablyClean {
		t.Fatalf("post-call stack store = %v, want ProvablyClean", v)
	}
}

// A callee that stores tainted data through an unbounded pointer must
// poison its callers' stack facts.
func TestCalleeWildStorePoisonsCaller(t *testing.T) {
	im, res := mustAnalyze(t, `
	.data
buf:	.word 0
	.text
_start:
	addiu $sp, $sp, -16
	sw $ra, 12($sp)
	sw $zero, 0($sp)
	jal wild
	lw $ra, 12($sp)
	lw $t0, 0($sp)     # local may have been clobbered with tainted data
deref:	lw $t1, 0($t0)
	li $v0, 1
	syscall

wild:
	li $v0, 3
	li $a0, 0
	la $a1, buf
	li $a2, 4
	syscall
	la $t5, buf
	lw $t6, 0($t5)     # tainted word
	lw $t7, 0($t6)     # also an unknown pointer... use it as store target
	sw $t6, 0($t6)     # tainted store through tainted pointer
	jr $ra
`, taint.Propagator{})
	if res.Bailed {
		t.Fatalf("bailed: %s", res.BailReason)
	}
	if v := verdictAtSym(t, im, res, "deref", 0); v != MayDereferenceTainted {
		t.Fatalf("deref after callee wild store = %v, want MayDereferenceTainted", v)
	}
}

// argv/env memory above the root $sp is untracked and must read as
// MaybeTainted: dereferencing a word loaded through $a1 is flagged.
func TestArgvIsTainted(t *testing.T) {
	im, res := mustAnalyze(t, `
	.text
_start:
	lw $t0, 0($a1)     # argv[0] pointer (clean address: a1 is stack)
deref:	lw $t1, 0($t0)     # the pointed-to string: fine, but t0 is untracked
	li $v0, 1
	syscall
`, taint.Propagator{})
	// Loading through $a1 itself: the address is clean (kStackAny).
	a := im.Entry
	if v := res.VerdictAt(a); v != ProvablyClean {
		t.Fatalf("lw through $a1 = %v, want ProvablyClean", v)
	}
	if v := verdictAtSym(t, im, res, "deref", 0); v != MayDereferenceTainted {
		t.Fatalf("deref of untracked stack word = %v, want MayDereferenceTainted", v)
	}
}

// A JALR whose target is materialized with `la` resolves per-site over
// the predecode CFG: no whole-image bail, the address-taken callee is
// discovered as a function, the call keeps full precision, and fact
// coverage is nonzero — the exact image that used to claim nothing now
// proves its clean dereferences clean.
func TestJALRResolvedCall(t *testing.T) {
	im, res := mustAnalyze(t, `
	.data
w:	.word 0
	.text
_start:
	la $t0, w
loadw:	lw $t1, 0($t0)
	la $t2, fn
	jalr $ra, $t2
after:	lw $t3, 0($t0)
	li $v0, 1
	syscall
fn:
	jr $ra
`, taint.Propagator{})
	if res.Bailed {
		t.Fatalf("resolved jalr must not bail the image: %s", res.BailReason)
	}
	if len(res.SiteBails) != 0 {
		t.Fatalf("resolved jalr must not record a site bail: %+v", res.SiteBails)
	}
	if v := verdictAtSym(t, im, res, "loadw", 0); v != ProvablyClean {
		t.Fatalf("loadw before resolved jalr = %v, want ProvablyClean", v)
	}
	if v := verdictAtSym(t, im, res, "after", 0); v != ProvablyClean {
		t.Fatalf("load after resolved jalr = %v, want ProvablyClean", v)
	}
	facts := 0
	for _, f := range res.Facts() {
		if f != 0 {
			facts++
		}
	}
	if facts == 0 {
		t.Fatalf("resolved-jalr image has zero fact coverage; the whole-image bail is back")
	}
}

// A JALR whose target the analysis cannot resolve degrades to a
// per-site bail: the site is recorded, state across the call is
// havocked (the reload after it is no longer provably clean), but the
// image is NOT bailed and the sites before the call keep their facts.
func TestJALRUnresolvedIsPerSite(t *testing.T) {
	im, res := mustAnalyze(t, `
	.data
w:	.word 0
fp:	.word 0
	.text
_start:
	la $t0, w
loadw:	lw $t1, 0($t0)
	la $t2, fp
	lw $t3, 0($t2)
jalr0:	jalr $ra, $t3
	la $t0, w
after:	lw $t1, 0($t0)
	li $v0, 1
	syscall
fn:
	jr $ra
`, taint.Propagator{})
	if res.Bailed {
		t.Fatalf("unresolved jalr must stay a per-site bail: %s", res.BailReason)
	}
	if len(res.SiteBails) != 1 {
		t.Fatalf("want exactly one site bail, got %+v", res.SiteBails)
	}
	jalrPC := im.Symbols["jalr0"]
	if res.SiteBails[0].PC != jalrPC {
		t.Fatalf("site bail at %#x, want %#x", res.SiteBails[0].PC, jalrPC)
	}
	if v := verdictAtSym(t, im, res, "loadw", 0); v != ProvablyClean {
		t.Fatalf("loadw before unresolved jalr = %v, want ProvablyClean", v)
	}
	// After the unknown call, the pointer was re-materialized from a
	// constant so the address itself is clean — but w's region may have
	// been tainted by whatever the callee did, which is fine; what the
	// havoc must guarantee is that the call does not LEAK facts: the
	// verdict after the call must not claim anything about the register
	// state the callee left behind. Re-deriving the address keeps this
	// one clean; the point of the test is the site bail and no image
	// bail above.
	if v := verdictAtSym(t, im, res, "after", 0); v == VerdictNone {
		t.Fatalf("load after unresolved jalr unreached, want a verdict")
	}
	facts := 0
	for _, f := range res.Facts() {
		if f != 0 {
			facts++
		}
	}
	if facts == 0 {
		t.Fatalf("per-site bail wiped all facts; want nonzero coverage outside the havoc")
	}
}

// The XOR self-idiom zeroes and untaints; with the idiom disabled the
// taint survives even though the value is still zero.
func TestXorIdiomGate(t *testing.T) {
	src := `
	.data
buf:	.word 0
	.text
_start:
	li $v0, 3
	li $a0, 0
	la $a1, buf
	li $a2, 4
	syscall
	la $t0, buf
	lw $t1, 0($t0)
	xor $t1, $t1, $t1
deref:	lw $t2, 0($t1)
	li $v0, 1
	syscall
`
	im, res := mustAnalyze(t, src, taint.Propagator{})
	if v := verdictAtSym(t, im, res, "deref", 0); v != ProvablyClean {
		t.Fatalf("deref after xor idiom = %v, want ProvablyClean", v)
	}
	im2, res2 := mustAnalyze(t, src, taint.Propagator{DisableXorIdiom: true, DisableCompareUntaint: true})
	if v := verdictAtSym(t, im2, res2, "deref", 0); v != MayDereferenceTainted {
		t.Fatalf("deref with idiom disabled = %v, want MayDereferenceTainted", v)
	}
}

// Tainted stores through bounded constant addresses taint only the
// target region, and the fact bits mirror the verdicts exactly.
func TestFactsMatchVerdicts(t *testing.T) {
	for _, p := range []string{"exp1", "wuftpd", "ghttpd"} {
		t.Run(p, func(t *testing.T) {
			prog, ok := progs.ByName(p)
			if !ok {
				t.Fatalf("program %q missing", p)
			}
			im, err := prog.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := Analyze(im, taint.Propagator{})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			for _, s := range res.Sites() {
				i := int((s.PC - res.TextBase) / 4)
				hasFact := res.Facts()[i]&FactAddrClean != 0
				if (s.Verdict == ProvablyClean) != hasFact {
					t.Fatalf("pc %#x: verdict %v but FactAddrClean=%v", s.PC, s.Verdict, hasFact)
				}
			}
		})
	}
}
