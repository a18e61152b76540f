package cpu

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/taint"
)

// Superblock compilation: a trace tier above the basic-block fast path.
//
// A superblock fuses a hot cyclic trace of statically-clean basic blocks
// into one straight-line specialized form with no per-instruction
// dispatch through the decIns kind switch. The taint checks that
// StepBlock performs per instruction are hoisted into a single entry
// guard (every register the trace reads before writing must be
// untainted), which a structural invariant then carries through the
// whole trace: every in-trace write deposits taint.None, and a load
// that observes a tainted value side-exits immediately after retiring,
// so no instruction inside a superblock ever sees a tainted operand.
// Stats, pipeline, and clean-skip accounting collapse to per-iteration
// constants materialized once at exit; the only per-execution dynamic
// costs are the handful of guards that StepBlock also pays on its clean
// path (compare/branch home probes, store range checks) plus coverage
// hits when a map is attached.
//
// Every assumption has a deopt: a violated guard exits before the
// offending instruction with the machine state byte-identical to what
// the block path would have at that pc, and the block path re-executes
// the instruction with its full check set. Probes, profiling, cache
// buses, and the reference interpreter never see superblocks at all.
const (
	// sbHotThreshold is the number of block-path dispatches of one entry
	// pc before a superblock is attempted there.
	sbHotThreshold = 64
	// sbMaxOps bounds one trace, in instructions.
	sbMaxOps = 256
	// sbMinOps rejects degenerate traces not worth the entry guard.
	sbMinOps = 2
	// sbMaxBadEntries retires a superblock, for one machine, whose entry
	// guard keeps failing or whose first instruction keeps deoptimizing
	// there, so a loop that is structurally fusable but dynamically tainted
	// stops paying the guard on every dispatch.
	sbMaxBadEntries = 64
)

// Last-invalidation tags for CPU.sbInval: when dispatch finds a compiled
// trace no longer live, the tag says which event killed it so the deopt
// lands in the right Stats reason bucket. Self-modify is the zero value —
// text stores and plain block rebuilds are the untagged default cause.
const (
	sbInvalSelfModify = iota
	sbInvalProbe
	sbInvalInject
)

// sbOp flags.
const (
	// sbfExpTaken: the trace continues on the taken direction of this
	// branch; the other direction is a side exit.
	sbfExpTaken = 1 << iota
	// sbfLoop: this control op closes the trace back to its entry pc —
	// the iteration boundary.
	sbfLoop
)

// sbOp is one specialized instruction of a superblock. code, registers and
// imm are its block instruction's predecoded decIns fields, unchanged.
type sbOp struct {
	code  uint8 // dense op code (denseOps)
	flags uint8
	dst   uint8
	a     uint8  // first operand register (addr base for memory ops)
	b     uint8  // second operand register (store value, branch Rt)
	exit  uint16 // pre-op deopt exit record
	exitT uint16 // post-op side exit record (tainted load, branch other way)
	imm   uint32
	pc    uint32
	tgt   uint32 // branch/jump taken target
	homes uint32 // registers whose memory homes must probe clean
}

// sbExit is one precomputed exit point: the partial stats/pipeline
// contribution of the current iteration up to (pre-op exits) or through
// (post-op exits) the exiting instruction, plus the resume pc and the
// load-use hazard state at that boundary. exits[0] is always the
// iteration boundary itself (zero partials, resume at the entry pc).
type sbExit struct {
	done, clean, static     uint64
	loads, stores, branches uint64
	cyc, stalls, flush      uint64
	loadDst                 isa.Register
	pc                      uint32
}

// sbPart pins one constituent basic block: the superblock is live only
// while every part is still the block in its table slot, which makes
// every existing invalidation path (self-modifying stores, probe
// registration, fact drops, fault injection) invalidate superblocks
// with no extra hooks. On a shared table no slot ever changes, so a trace
// compiled there stays live.
type sbPart struct {
	idx uint32
	b   *decBlock
}

// superblock is one compiled trace, held per machine by the ordinal of
// its entry block (decBlock.ord) and published in a shared table's slot
// of its entry word. It is immutable once built, since family members may
// be running it concurrently; what a machine learns about a trace (heat,
// bad entries) lives in its own sbHeat and sbBad. parts also records the
// build's walk, in order: the blocks whose first dispatch the build
// performs. A build whose walk cannot be fused keeps only its parts (ops
// is nil), so that a machine reusing the result counts the same first
// dispatches.
type superblock struct {
	ops         []sbOp
	exits       []sbExit
	iter        sbExit // whole-iteration constants (pc/loadDst unused)
	parts       []sbPart
	liveIn      []isa.Register // read-before-write set for the entry guard
	entryPC     uint32
	hz0a, hz0b  uint8 // first op's hazard sources (entry-edge stall check)
	branchGuard bool  // prop.BranchUntaint() at build time
}

// sbUnfusable marks, per machine, an entry pc whose trace cannot be
// fused or was retired, so the dispatch stops re-attempting it.
var sbUnfusable = &superblock{}

// SetSuperblocks enables or disables the superblock tier (enabled by
// default). Disabling drops all compiled superblocks; the basic-block
// fast path is unaffected.
func (c *CPU) SetSuperblocks(on bool) {
	c.sbOff = !on
	if !on {
		c.sblocks, c.sbHeat, c.sbBad = nil, nil, nil
	}
}

// flushSuperblocks drops every superblock this machine has compiled or
// retired but keeps the heat counters, so hot entries compile again on
// their next dispatch — on a shared table by reusing the published trace.
func (c *CPU) flushSuperblocks() {
	for i := range c.sblocks {
		c.sblocks[i] = nil
	}
}

// growSuperblocks extends the per-ordinal superblock, heat and bad-entry
// slices to cover ordinal o, at least to every ordinal the table has
// handed out so far: a fork of a warm snapshot sizes them once, not per
// new block.
func (c *CPU) growSuperblocks(o uint32) {
	n := max(int(c.text.ords.Load()), 2*len(c.sbHeat), int(o)+1)
	sblocks := make([]*superblock, n)
	copy(sblocks, c.sblocks)
	heat := make([]uint16, n)
	copy(heat, c.sbHeat)
	bad := make([]uint8, n)
	copy(bad, c.sbBad)
	c.sblocks, c.sbHeat, c.sbBad = sblocks, heat, bad
}

// compileSuperblock returns the trace this machine enters at block index
// idx once the entry is hot. On a shared table it reuses the trace a
// family member published at idx, or builds and publishes one. Reuse
// replays the first dispatches the build's walk performed and this
// machine has not, so its block counters read exactly as if it had built
// the trace itself. A shared table's blocks never change, and
// buildSuperblock reads nothing else a member can change without leaving
// the table (prop is fixed at New), so the published trace is the one
// this machine would build.
func (c *CPU) compileSuperblock(idx uint32) *superblock {
	var sb *superblock
	if !c.text.shared {
		sb = c.buildSuperblock(idx)
	} else if s := &c.text.slots[idx]; s.sb.Load() == nil {
		if sb = c.buildSuperblock(idx); !s.sb.CompareAndSwap(nil, sb) {
			// A sibling published first; its walk was this build's, so
			// the first dispatches are already counted.
			sb = s.sb.Load()
		}
	} else {
		sb = s.sb.Load()
		for _, p := range sb.parts {
			if !c.seenAt(p.idx) {
				c.firstDispatch(p.idx)
				c.stats.BlockMisses++
			}
		}
	}
	if sb.ops == nil {
		return sbUnfusable
	}
	return sb
}

// live reports whether every constituent block is still the block in its
// table slot.
func (sb *superblock) live(c *CPU) bool {
	for i := range sb.parts {
		p := &sb.parts[i]
		if c.text.slots[p.idx].block.Load() != p.b {
			return false
		}
	}
	return true
}

// sbEntryClean is the hoisted taint check: every register the trace
// reads before writing must be untainted.
func (c *CPU) sbEntryClean(sb *superblock) bool {
	var t taint.Vec
	for _, r := range sb.liveIn {
		t |= c.regTaint[r]
	}
	return t == taint.None
}

// sbHomesDirty reports whether any live register home in mask has a
// tainted byte — the condition under which a compare/branch untaint
// write-through would be observable and the superblock must deopt.
func (c *CPU) sbHomesDirty(mask uint32) bool {
	for m := mask & c.homesMask; m != 0; m &= m - 1 {
		h := &c.regHomes[bits.TrailingZeros32(m)]
		if c.flatMem.SpanTainted(h.addr, int(h.width)) {
			return true
		}
	}
	return false
}

// buildSuperblock compiles the trace entered at block index idx. When the
// walk cannot be fused it returns a superblock holding only the walk's
// parts (ops nil). The trace follows fall-through edges, expected
// branch directions (a conditional whose target is the entry pc is the
// loop-back, expected taken; any other conditional is expected not
// taken), and unconditional in-text jumps, and must close back to the
// entry pc; it ends unfusable at calls, register jumps, traps,
// undecodable words, internal revisits, or sbMaxOps.
func (c *CPU) buildSuperblock(idx uint32) *superblock {
	entryPC := c.textBase + idx*4
	sb := &superblock{entryPC: entryPC, branchGuard: c.prop.BranchUntaint()}
	// Near-edge text forces per-op nextPC checks in StepBlock
	// (forceTail); keep superblocks out of that regime entirely.
	if c.textBase < nullPage || c.textEnd > ^uint32(0)-uint32(maxBlockLen)*4 {
		return sb
	}
	// unfusable keeps only the walk, for machines reusing this result.
	unfusable := func() *superblock {
		sb.ops, sb.exits, sb.liveIn = nil, nil, nil
		return sb
	}
	sb.exits = append(sb.exits, sbExit{pc: entryPC, loadDst: isa.RegZero})
	var (
		run         sbExit // pre-op running totals at the current position
		writtenMask uint32
		liveMask    uint32
		lastLoad    = isa.RegZero
		closed      bool
	)
	addExit := func(e sbExit) uint16 {
		sb.exits = append(sb.exits, e)
		return uint16(len(sb.exits) - 1)
	}
	read := func(r isa.Register) {
		if r != isa.RegZero && writtenMask&(1<<r) == 0 && liveMask&(1<<r) == 0 {
			liveMask |= 1 << r
			sb.liveIn = append(sb.liveIn, r)
		}
	}
	wrote := func(r isa.Register) {
		if r != isa.RegZero {
			writtenMask |= 1 << r
		}
	}
	cur := idx
	for !closed {
		for i := range sb.parts {
			if sb.parts[i].idx == cur {
				return unfusable() // revisit that is not the entry: no single loop head
			}
		}
		b := c.text.slots[cur].block.Load()
		if !c.seenAt(cur) {
			if b = c.firstDispatch(cur); b == nil {
				return unfusable()
			}
			c.stats.BlockMisses++
		}
		sb.parts = append(sb.parts, sbPart{idx: cur, b: b})
		pc := c.textBase + cur*4
		next := cur + uint32(len(b.ins))
		for i := range b.ins {
			d := &b.ins[i]
			if len(sb.ops) >= sbMaxOps || d.fop == sbNone {
				return unfusable() // too long, or a call, register jump or trap
			}
			// The retire-stage hazard check reads the pipeline's loadDst
			// after the current instruction's memory effect has updated
			// it: a load therefore stalls iff it reads its own
			// destination (a chained pointer walk), a store never stalls,
			// and every other kind stalls on the preceding load's dst.
			var hz uint64
			switch d.kind {
			case isa.KindLoad:
				if d.dst != isa.RegZero && (d.srcA == d.dst || d.srcB == d.dst) {
					hz = 1
				}
			case isa.KindStore:
				// hz stays 0.
			default:
				if lastLoad != isa.RegZero && (d.srcA == lastLoad || d.srcB == lastLoad) {
					hz = 1
				}
				if len(sb.ops) == 0 {
					// The first op's hazard is against the pipe state at
					// entry (dynamic, charged once by runSuperblock) on the
					// first pass and against the loop-back control op (never
					// a load) on every later pass. Memory ops never see the
					// entry loadDst, so hz0a/hz0b stay zero for them.
					hz = 0
					sb.hz0a, sb.hz0b = uint8(d.srcA), uint8(d.srcB)
				}
			}
			op := sbOp{code: d.fop, pc: pc, dst: uint8(d.dst), a: uint8(d.srcA), b: uint8(d.srcB), imm: d.imm}
			pre := run
			pre.pc = pc
			pre.loadDst = lastLoad
			switch d.kind {
			case isa.KindALU, isa.KindShift:
				read(d.srcA)
				read(d.srcB)
				run.done++
				run.clean++
				run.static += uint64(d.static & FactOperandsClean)
				run.cyc += 1 + hz
				run.stalls += hz
				wrote(d.dst)
				lastLoad = isa.RegZero
			case isa.KindCompare:
				read(d.srcA)
				read(d.srcB)
				op.homes = (uint32(1)<<d.srcA | uint32(1)<<d.srcB) &^ 1
				op.exit = addExit(pre)
				run.done++
				run.clean++
				run.cyc += 1 + hz
				run.stalls += hz
				wrote(d.dst)
				lastLoad = isa.RegZero
			case isa.KindLoad:
				read(d.srcA)
				op.exit = addExit(pre)
				st := uint64(d.static&FactAddrClean) >> 1
				post := pre
				post.done++
				post.loads++
				post.static += st
				post.cyc += 1 + hz
				post.stalls += hz
				post.loadDst = d.dst
				post.pc = pc + 4
				op.exitT = addExit(post)
				run.done++
				run.loads++
				run.static += st
				run.cyc += 1 + hz
				run.stalls += hz
				wrote(d.dst)
				lastLoad = d.dst
			case isa.KindStore:
				read(d.srcA)
				read(d.srcB)
				op.exit = addExit(pre)
				run.done++
				run.stores++
				run.static += uint64(d.static&FactAddrClean) >> 1
				run.cyc += 1 + hz
				run.stalls += hz
				lastLoad = isa.RegZero
			case isa.KindBranch:
				if sb.branchGuard {
					read(d.srcA)
					read(d.srcB)
					op.homes = (uint32(1)<<d.srcA | uint32(1)<<d.srcB) &^ 1
					op.exit = addExit(pre)
				}
				tgt := isa.BranchTarget(pc, d.in)
				op.tgt = tgt
				post := pre
				post.done++
				post.clean++
				post.branches++
				post.stalls += hz
				post.loadDst = isa.RegZero
				run.done++
				run.clean++
				run.branches++
				run.stalls += hz
				if tgt == entryPC {
					op.flags |= sbfExpTaken | sbfLoop
					post.cyc += 1 + hz // side exit: fell through, no flush
					post.pc = pc + 4
					op.exitT = addExit(post)
					run.cyc += 1 + hz + 2
					run.flush += 2
					closed = true
				} else {
					post.cyc += 1 + hz + 2 // side exit: taken
					post.flush += 2
					post.pc = tgt
					op.exitT = addExit(post)
					run.cyc += 1 + hz
				}
				lastLoad = isa.RegZero
			case isa.KindJump: // j: jal has no fast form
				tgt := isa.JumpTarget(pc, d.in)
				op.tgt = tgt
				run.done++
				run.cyc += 1 + hz + 2
				run.flush += 2
				lastLoad = isa.RegZero
				if tgt == entryPC {
					op.flags |= sbfLoop
					closed = true
				} else {
					if tgt < c.textBase || (tgt-c.textBase)&3 != 0 {
						return unfusable()
					}
					next = (tgt - c.textBase) >> 2
				}
			case isa.KindSystem: // nop: syscall and break have no fast form
				run.done++
				run.clean++
				run.cyc += 1 + hz
				run.stalls += hz
				lastLoad = isa.RegZero
			}
			sb.ops = append(sb.ops, op)
			pc += 4
			if closed {
				break
			}
		}
		if closed {
			break
		}
		if next >= uint32(len(c.text.slots)) {
			return unfusable()
		}
		cur = next
	}
	if len(sb.ops) < sbMinOps {
		return unfusable()
	}
	sb.iter = run
	return sb
}

// sbFinish materializes iters complete iterations plus the partial exit
// record e into the machine's stats and pipeline, and returns the
// resume pc. The second result reports whether any instruction retired:
// when false the machine state is untouched (the caller must then make
// progress on the block path before re-entering this superblock).
func (c *CPU) sbFinish(sb *superblock, iters uint64, e *sbExit, entryExtra uint64) (uint32, bool) {
	it := &sb.iter
	done := iters*it.done + e.done
	if done == 0 {
		return e.pc, false
	}
	clean := iters*it.clean + e.clean
	c.stats.Instructions += done
	c.stats.CleanSkips += clean
	c.stats.TaintedSteps += done - clean
	c.stats.StaticCleanSkips += iters*it.static + e.static
	c.stats.Loads += iters*it.loads + e.loads
	c.stats.Stores += iters*it.stores + e.stores
	c.stats.Branches += iters*it.branches + e.branches
	c.stats.SuperblockInstrs += done
	c.pipe.cycles += iters*it.cyc + e.cyc + entryExtra
	c.pipe.stallCycles += iters*it.stalls + e.stalls + entryExtra
	c.pipe.flushCycles += iters*it.flush + e.flush
	c.pipe.loadDst = e.loadDst
	return e.pc, true
}

// sbStoreDeopt books a store's guard exit under its cause: an address the
// store itself would fault on (null page, misaligned) is a MemFault, one
// inside the text window a SelfModify. The hot path's single guard compare
// folds the two; only the exit tells them apart.
func (c *CPU) sbStoreDeopt(addr, w uint32) {
	c.stats.SuperblockDeopts++
	if addr < nullPage || addr&(w-1) != 0 {
		c.stats.SbDeoptMemFault++
	} else {
		c.stats.SbDeoptSelfModify++
	}
}

// runSuperblock executes the trace until a side exit, a deopt, or the
// instruction budget boundary. The caller has already flushed its
// batched locals (stats and pipe are exact), verified the entry guard,
// and checked that at least one full iteration fits the budget.
func (c *CPU) runSuperblock(sb *superblock, max uint64) (uint32, bool) {
	ops := sb.ops
	// The entry-edge load-use hazard: charged once if the first op ever
	// retires, mirroring StepBlock's dynamic prevDst at chain entry.
	var entryExtra uint64
	if ld := c.pipe.loadDst; ld != isa.RegZero && (uint8(ld) == sb.hz0a || uint8(ld) == sb.hz0b) {
		entryExtra = 1
	}
	iterBudget := ^uint64(0)
	if max > 0 {
		iterBudget = (max - c.stats.Instructions) / uint64(len(ops))
	}
	m := c.flatMem
	var iters uint64
	i := 0
	for {
		op := &ops[i]
		switch op.code {
		case sbNOP:
		case sbLUI:
			c.SetReg(isa.Register(op.dst), op.imm, taint.None)
		case sbADDrr:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]+c.regs[op.b], taint.None)
		case sbADDri:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]+op.imm, taint.None)
		case sbSUBrr:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]-c.regs[op.b], taint.None)
		case sbANDrr:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]&c.regs[op.b], taint.None)
		case sbANDri:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]&op.imm, taint.None)
		case sbORrr:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]|c.regs[op.b], taint.None)
		case sbORri:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]|op.imm, taint.None)
		case sbXORrr:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]^c.regs[op.b], taint.None)
		case sbXORri:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]^op.imm, taint.None)
		case sbNORrr:
			c.SetReg(isa.Register(op.dst), ^(c.regs[op.a] | c.regs[op.b]), taint.None)
		case sbMULrr:
			c.SetReg(isa.Register(op.dst), uint32(int32(c.regs[op.a])*int32(c.regs[op.b])), taint.None)
		case sbDIVrr:
			a, b := c.regs[op.a], c.regs[op.b]
			var v uint32
			switch {
			case b == 0:
				v = 0
			case int32(a) == -1<<31 && int32(b) == -1:
				v = 0x80000000
			default:
				v = uint32(int32(a) / int32(b))
			}
			c.SetReg(isa.Register(op.dst), v, taint.None)
		case sbDIVUrr:
			var v uint32
			if b := c.regs[op.b]; b != 0 {
				v = c.regs[op.a] / b
			}
			c.SetReg(isa.Register(op.dst), v, taint.None)
		case sbREMrr:
			a, b := c.regs[op.a], c.regs[op.b]
			var v uint32
			if b != 0 && !(int32(a) == -1<<31 && int32(b) == -1) {
				v = uint32(int32(a) % int32(b))
			}
			c.SetReg(isa.Register(op.dst), v, taint.None)
		case sbREMUrr:
			var v uint32
			if b := c.regs[op.b]; b != 0 {
				v = c.regs[op.a] % b
			}
			c.SetReg(isa.Register(op.dst), v, taint.None)
		case sbSLLri:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]<<(op.imm&31), taint.None)
		case sbSLLrr:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]<<(c.regs[op.b]&31), taint.None)
		case sbSRLri:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]>>(op.imm&31), taint.None)
		case sbSRLrr:
			c.SetReg(isa.Register(op.dst), c.regs[op.a]>>(c.regs[op.b]&31), taint.None)
		case sbSRAri:
			c.SetReg(isa.Register(op.dst), uint32(int32(c.regs[op.a])>>(op.imm&31)), taint.None)
		case sbSRArr:
			c.SetReg(isa.Register(op.dst), uint32(int32(c.regs[op.a])>>(c.regs[op.b]&31)), taint.None)
		case sbSLTrr, sbSLTri, sbSLTUrr, sbSLTUri:
			// Compares untaint through live memory homes; that
			// write-through must stay unobservable or the block path
			// owns the instruction.
			if op.homes&c.homesMask != 0 && c.sbHomesDirty(op.homes) {
				c.stats.SuperblockDeopts++
				c.stats.SbDeoptProbe++
				return c.sbFinish(sb, iters, &sb.exits[op.exit], entryExtra)
			}
			var v uint32
			switch op.code {
			case sbSLTrr:
				if int32(c.regs[op.a]) < int32(c.regs[op.b]) {
					v = 1
				}
			case sbSLTri:
				if int32(c.regs[op.a]) < int32(op.imm) {
					v = 1
				}
			case sbSLTUrr:
				if c.regs[op.a] < c.regs[op.b] {
					v = 1
				}
			case sbSLTUri:
				if c.regs[op.a] < op.imm {
					v = 1
				}
			}
			c.SetReg(isa.Register(op.dst), v, taint.None)
		case sbLW:
			addr := c.regs[op.a] + op.imm
			if addr < nullPage || addr&3 != 0 {
				c.stats.SuperblockDeopts++
				c.stats.SbDeoptMemFault++
				return c.sbFinish(sb, iters, &sb.exits[op.exit], entryExtra)
			}
			w, wv := m.WordAt(addr)
			rd := isa.Register(op.dst)
			if wv != taint.None {
				// Taint birth: retire this load with its full effects,
				// then exit so the block path sees the tainted register.
				c.stats.SuperblockDeopts++
				c.stats.SbDeoptLoadedTaint++
				c.SetReg(rd, w, wv)
				e := &sb.exits[op.exitT]
				if c.prov != nil {
					c.provLoad(rd, addr, op.pc, c.stats.Instructions+iters*sb.iter.done+e.done-1)
				}
				c.setHome(rd, addr, 4)
				return c.sbFinish(sb, iters, e, entryExtra)
			}
			c.SetReg(rd, w, taint.None)
			c.setHome(rd, addr, 4)
		case sbLB, sbLBU, sbLH, sbLHU:
			addr := c.regs[op.a] + op.imm
			w := sbWidth[op.code]
			if addr < nullPage || addr&(w-1) != 0 {
				c.stats.SuperblockDeopts++
				c.stats.SbDeoptMemFault++
				return c.sbFinish(sb, iters, &sb.exits[op.exit], entryExtra)
			}
			v, vec := loadFlat(m, op.code, addr)
			rd := isa.Register(op.dst)
			c.SetReg(rd, v, vec)
			if vec != taint.None {
				c.stats.SuperblockDeopts++
				c.stats.SbDeoptLoadedTaint++
				e := &sb.exits[op.exitT]
				if c.prov != nil {
					c.provLoad(rd, addr, op.pc, c.stats.Instructions+iters*sb.iter.done+e.done-1)
				}
				c.setHome(rd, addr, int(w))
				return c.sbFinish(sb, iters, e, entryExtra)
			}
			c.setHome(rd, addr, int(w))
		case sbSW:
			// addr < textEnd folds the null-page fault, the
			// self-modifying-text eviction, and text stores into one
			// deopt compare (text sits directly above the null page).
			addr := c.regs[op.a] + op.imm
			if addr&3 != 0 || addr < c.textEnd {
				c.sbStoreDeopt(addr, 4)
				return c.sbFinish(sb, iters, &sb.exits[op.exit], entryExtra)
			}
			m.PutWord(addr, c.regs[op.b], taint.None)
			if c.homesMask != 0 {
				c.invalidateHomes(addr, 4)
			}
		case sbSB, sbSH:
			addr := c.regs[op.a] + op.imm
			w := sbWidth[op.code]
			if addr&(w-1) != 0 || addr < c.textEnd {
				c.sbStoreDeopt(addr, w)
				return c.sbFinish(sb, iters, &sb.exits[op.exit], entryExtra)
			}
			storeFlat(m, w, addr, c.regs[op.b], taint.None)
			if c.homesMask != 0 {
				c.invalidateHomes(addr, int(w))
			}
		case sbBEQ, sbBNE, sbBLEZ, sbBGTZ, sbBLTZ, sbBGEZ:
			if sb.branchGuard && op.homes&c.homesMask != 0 && c.sbHomesDirty(op.homes) {
				c.stats.SuperblockDeopts++
				c.stats.SbDeoptProbe++
				return c.sbFinish(sb, iters, &sb.exits[op.exit], entryExtra)
			}
			var taken bool
			switch op.code {
			case sbBEQ:
				taken = c.regs[op.a] == c.regs[op.b]
			case sbBNE:
				taken = c.regs[op.a] != c.regs[op.b]
			case sbBLEZ:
				taken = int32(c.regs[op.a]) <= 0
			case sbBGTZ:
				taken = int32(c.regs[op.a]) > 0
			case sbBLTZ:
				taken = int32(c.regs[op.a]) < 0
			case sbBGEZ:
				taken = int32(c.regs[op.a]) >= 0
			}
			if c.cov != nil {
				to := op.pc + 4
				if taken {
					to = op.tgt
				}
				c.cov.hit(op.pc, to)
			}
			if taken != (op.flags&sbfExpTaken != 0) {
				return c.sbFinish(sb, iters, &sb.exits[op.exitT], entryExtra)
			}
			if op.flags&sbfLoop != 0 {
				iters++
				if iters >= iterBudget {
					return c.sbFinish(sb, iters, &sb.exits[0], entryExtra)
				}
				i = 0
				continue
			}
		case sbJMP:
			if c.cov != nil {
				c.cov.hit(op.pc, op.tgt)
			}
			if op.flags&sbfLoop != 0 {
				iters++
				if iters >= iterBudget {
					return c.sbFinish(sb, iters, &sb.exits[0], entryExtra)
				}
				i = 0
				continue
			}
		}
		i++
	}
}
