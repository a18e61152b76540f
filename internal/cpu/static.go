package cpu

import "repro/internal/isa"

// Static facts are per-text-word bits computed by internal/analysis and
// installed with SetStaticFacts. Each bit is a proof obligation the
// analyzer discharged for every execution reaching that instruction;
// the fast path uses them to skip the corresponding runtime taint
// checks (counted in Stats.StaticCleanSkips). The differential harness
// cross-checks them: a wrong fact shows up as a fast-vs-reference
// divergence.
const (
	// FactOperandsClean: both taint-source registers of this ALU/shift
	// instruction are provably untainted here.
	FactOperandsClean uint8 = 1 << 0
	// FactAddrClean: the address register of this load/store/jr is
	// provably untainted here, so the pointer-taintedness check cannot
	// fire.
	FactAddrClean uint8 = 1 << 1
)

// TaintSources exposes the fast path's operand-register mapping so the
// static analyzer checks exactly the registers the runtime checks — the
// two must agree or a FactOperandsClean bit would be unsound.
func TaintSources(in isa.Instruction) (a, b isa.Register) {
	return taintSources(in)
}

// SetStaticFacts installs per-text-word static fact bits, indexed like
// the predecode cache (facts[i] covers textBase + 4i). A nil slice — or
// one whose length does not match the text segment — clears the facts.
// Existing predecoded blocks are flushed so they are rebuilt carrying
// the new bits; clearing the facts on a fresh fork joins the family's
// fact-free table instead (dropFacts). Call after LoadImage and before
// execution.
func (c *CPU) SetStaticFacts(facts []uint8) {
	if facts == nil || len(facts) != c.text.words() {
		c.dropFacts()
		return
	}
	c.staticFacts = facts
	c.flushBlocks()
}
