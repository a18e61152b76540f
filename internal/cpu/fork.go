package cpu

import (
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/mem"
)

// blockTable is the predecoded text of one snapshot family: a loaded CPU
// and every CPU forked from it, directly or through further snapshots, for
// as long as none of them changes a block input — the text bytes, the
// probe set, or the static facts. Slot i covers the text word at
// textBase + 4i.
//
// A table nobody shares yet (a freshly loaded CPU, or one that left its
// family) is written in place. Once ShareText marks it shared it only
// grows: the first member to reach a block builds it and publishes it with
// CompareAndSwap, and every other member reuses that immutable decBlock.
// The same holds one tier up: the first member to compile the superblock
// entered at a slot publishes it there, and every other member that heats
// the entry reuses it. A member about to change a block input first leaves
// for a private copy (ownText), so its siblings never see the change — or,
// when it only drops its static facts and holds no superblock state yet,
// joins the family's fact-free sibling table (dropFacts).
type blockTable struct {
	slots  []textSlot
	ords   atomic.Uint32 // block ordinals handed out so far
	shared bool
	// factFree is the shared table of the family's members that dropped
	// their static facts (factFreeSibling); nil until the first one does.
	factFree atomic.Pointer[blockTable]
}

// textSlot is one text word's entry in a blockTable.
type textSlot struct {
	block atomic.Pointer[decBlock]        // the block entered at this word
	ins   atomic.Pointer[isa.Instruction] // the decoded word, for stepOne
	ord   atomic.Uint32                   // block ordinal + 1; 0 until the first publish
	sb    atomic.Pointer[superblock]      // the trace compiled here; shared tables only
}

// newBlockTable returns an unshared table for a text segment of n words.
func newBlockTable(n int) *blockTable {
	return &blockTable{slots: make([]textSlot, n)}
}

// words returns the text length in words (0 for a CPU with no image).
func (t *blockTable) words() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// publish installs b as the block entered at slot s unless another family
// member got there first, and returns the block that won. The slot's
// ordinal is assigned on its first publish and kept across rebuilds, so a
// machine's superblock state stays keyed by entry word.
func (t *blockTable) publish(s *textSlot, b *decBlock) *decBlock {
	o := s.ord.Load()
	if o == 0 {
		o = t.ords.Add(1)
		if !s.ord.CompareAndSwap(0, o) {
			o = s.ord.Load()
		}
	}
	b.ord = o - 1
	if s.block.CompareAndSwap(nil, b) {
		return b
	}
	return s.block.Load()
}

// ownText makes the CPU's table its own before it changes a block input.
// On a shared table it leaves the family for a private copy seeded with
// exactly the blocks this machine has dispatched, every decoded word, and
// the ordinals handed out so far; on an unshared table it does nothing.
// Published superblocks stay behind: the machine's own compiled traces
// still pin the blocks it took along, and it compiles any others itself.
func (c *CPU) ownText() {
	t := c.text
	if t == nil || !t.shared {
		return
	}
	// Ordinals a sibling hands out from here on were never seen by this
	// machine; leaving them behind keeps the private ones from colliding.
	n := t.ords.Load()
	p := newBlockTable(len(t.slots))
	p.ords.Store(n)
	for i := range t.slots {
		s, d := &t.slots[i], &p.slots[i]
		d.ins.Store(s.ins.Load())
		if o := s.ord.Load(); o != 0 && o <= n {
			d.ord.Store(o)
		}
		if c.seenAt(uint32(i)) {
			d.block.Store(s.block.Load())
		}
	}
	c.text = p
	c.sbShared = false
}

// factFreeSibling returns the shared table of the family members that
// dropped their static facts, building it on first use. It starts with
// the family's decoded words and no blocks; its members then publish
// fact-free blocks and superblocks into it as into any shared table.
func (t *blockTable) factFreeSibling() *blockTable {
	if s := t.factFree.Load(); s != nil {
		return s
	}
	s := newBlockTable(len(t.slots))
	s.shared = true
	for i := range t.slots {
		s.slots[i].ins.Store(t.slots[i].ins.Load())
	}
	if !t.factFree.CompareAndSwap(nil, s) {
		s = t.factFree.Load()
	}
	return s
}

// dropFacts drops the static facts and every predecoded block built with
// them, for InjectAt and SetStaticFacts(nil). A family member that holds
// no superblock state yet — a fork that has not dispatched since Fork —
// joins the family's fact-free table instead of copying and clearing a
// private one, so armed forks share blocks and superblocks with each
// other. With no superblock state, no block ordinal of the old table is
// in use. Like flushBlocks, the join forgets every first dispatch, so
// the machine counts the same BlockMisses either way. A member whose
// facts are already nil is on a fact-free table and rejoins it.
func (c *CPU) dropFacts() {
	t := c.text
	if t == nil || !t.shared || c.sbHeat != nil {
		c.staticFacts = nil
		c.flushBlocks()
		return
	}
	if c.staticFacts != nil {
		c.text = t.factFreeSibling()
		c.staticFacts = nil
	}
	clear(c.seen)
	c.sbShared = true
}

// ShareText makes the CPU's predecoded text the shared table of a snapshot
// family, so forked CPUs may dispatch and publish into it concurrently.
// ShareText requires exclusive access to the CPU while its table is
// unshared; on a shared table it is a read-only no-op, which is what makes
// concurrent Fork calls on a snapshotted CPU safe.
func (c *CPU) ShareText() {
	if c.text != nil && !c.text.shared {
		c.text.shared = true
	}
}

// Fork returns a copy of the CPU wired to bus and handler. Registers,
// taint vectors, register homes, pc, pipeline, statistics, and halt state
// are value-copied; the block table, with the blocks and superblocks
// compiled into it, is shared with the snapshot family (ShareText runs
// first if it has not already) and only the first-dispatch bitset is
// copied, so forking costs one bit per text word rather than a copy of the
// predecoded text. The image is shared — it is immutable after
// assembly. Tracing is not inherited. Probe tables are cloned but the
// probe functions themselves are shared, so snapshot-time probes should be
// host-state-free.
//
// On a CPU whose text is already shared, Fork only reads the receiver, so
// many goroutines may fork one snapshot CPU concurrently.
func (c *CPU) Fork(bus Bus, handler SyscallHandler) *CPU {
	c.ShareText()
	n := new(CPU)
	*n = *c
	n.bus = bus
	n.handler = handler
	n.flatMem = nil
	if fm, ok := bus.(*mem.Memory); ok {
		n.flatMem = fm
	}
	n.penalties = nil
	if ps, ok := bus.(PenaltySource); ok {
		n.penalties = ps
	}
	n.tracer, n.traceLimit, n.traced = nil, 0, 0
	// The event sink is per-machine mutable state and, like the tracer,
	// is not inherited: concurrent forks emitting into a shared ring would
	// race. A fork that wants events calls EnableEvents itself.
	n.events = nil
	// Same for the coverage hit map: sharing one across concurrent forks
	// would race, so each fuzzing run attaches its own via SetCovMap.
	n.cov = nil
	// Heat and bad-entry counts are written per dispatch, so each fork
	// keeps its own and re-heats from zero: it enters a trace exactly when
	// a lone machine would. The compiled traces themselves are published
	// in the shared table, so a fork that heats an entry a sibling has
	// compiled reuses that trace instead of compiling its own.
	n.sblocks, n.sbHeat, n.sbBad = nil, nil, nil
	n.sbShared = true
	// The fork starts with the snapshot's first-dispatch record: a block
	// the snapshot had dispatched is a BlockHit here, as if inherited.
	if c.seen != nil {
		n.seen = append([]uint64(nil), c.seen...)
	}
	if c.prov != nil {
		// Provenance state is inherited: the register shadows copy and
		// the fork's label table layers on c's, so every fork resolves
		// pre-snapshot labels identically while post-fork inputs diverge
		// independently. The layer reads c's table for as long as the
		// fork lives, so c must not record provenance meanwhile: a
		// snapshot CPU never runs, and core flattens a snapshot's table
		// off the machine it was taken from (FlattenProv).
		n.prov = c.prov.fork()
	}
	if c.watches != nil {
		n.watches = append([]TaintWatch(nil), c.watches...)
	}
	if c.profile != nil {
		n.profile = append([]uint64(nil), c.profile...)
	}
	if c.probes != nil {
		probes := make(map[uint32][]func(*CPU), len(c.probes))
		for pc, fns := range c.probes {
			cloned := make([]func(*CPU), len(fns))
			copy(cloned, fns)
			probes[pc] = cloned
		}
		n.probes = probes
	}
	return n
}
