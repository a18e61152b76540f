package cpu

import (
	"repro/internal/isa"
	"repro/internal/taint"
)

// Superblock compilation: a trace tier above the basic-block fast path.
//
// A superblock fuses a hot cyclic trace of basic blocks into one
// straight-line specialized form with no per-instruction dispatch
// through the decIns kind switch. It carries taint the way the paper's
// datapath does (§4, §5.4): beside the values, not in their way. Every
// in-trace write deposits the taint Table 1 gives it — the rule of each
// op is read from the propagator at compile time — so a trace loads,
// computes on, compares and stores tainted values without leaving, and
// a compare on a tainted operand writes its untaint through to the
// operand's memory home inline (untaintWithHome), as the block path does.
// A clean-operand test per op keeps the common case as cheap as before.
//
// A trace leaves only where the block path does something it cannot:
// the checked dereference (a load or store whose address register is
// tainted, where the block path consults the detector), a tainted store
// value while taint watches are registered, tainted-operand work while
// both an event sink and provenance are attached (the block path syncs
// its lazy state for that hook), and the store-to-text, null-page and
// misalignment guards. Each such exit leaves before the op with the
// machine state byte-identical to what the block path would have at that
// pc, and the block path re-executes the op with its full check set.
// Stats, pipeline, and clean-skip accounting collapse to per-iteration
// constants materialized once at exit, less a count of the ops whose
// operands turned out tainted. Probes, profiling, cache buses, and the
// reference interpreter never see superblocks at all.
const (
	// sbHotThreshold is the number of block-path dispatches of one entry
	// pc before a superblock is attempted there.
	sbHotThreshold = 64
	// sbMaxOps bounds one trace, in instructions.
	sbMaxOps = 256
	// sbMinOps rejects degenerate traces not worth a dispatch.
	sbMinOps = 2
	// sbMaxBadEntries retires a superblock, for one machine, whose entry
	// keeps retiring nothing (its first op keeps exiting, say on a tainted
	// address) or keeps meeting a budget too short for one iteration, so a
	// loop that is structurally fusable but dynamically unfit stops paying
	// for the attempt on every dispatch.
	sbMaxBadEntries = 64
)

// sbOp flags.
const (
	// sbfExpTaken: the trace continues on the taken direction of this
	// branch; the other direction is a side exit.
	sbfExpTaken = 1 << iota
	// sbfLoop: this control op closes the trace back to its entry pc —
	// the iteration boundary.
	sbfLoop
	// sbfImmB: the second operand is the immediate imm, not register b
	// (Table 1 treats an immediate as untainted and never the same
	// register as the first operand).
	sbfImmB
)

// sbOp is one specialized instruction of a superblock. code, registers and
// imm are its block instruction's predecoded decIns fields, unchanged.
type sbOp struct {
	code  uint8 // dense op code (denseOps)
	flags uint8
	dst   uint8
	a     uint8      // first operand register (addr base for memory ops, shift datum)
	b     uint8      // second operand register (store value, branch Rt, shift amount)
	rule  taint.Rule // the op's Table 1 rule under the machine's propagator
	exit  uint16     // pre-op exit record
	exitT uint16     // branch side exit record (the other direction)
	imm   uint32
	pc    uint32
	tgt   uint32 // branch/jump taken target
	homes uint32 // compare/branch: the operand registers whose homes it may write through
}

// sbExit is one precomputed exit point: the partial stats/pipeline
// contribution of the current iteration up to (pre-op exits) or through
// (branch side exits) the exiting instruction, plus the resume pc and the
// load-use hazard state at that boundary. exits[0] is always the
// iteration boundary itself (zero partials, resume at the entry pc).
// clean counts the retired ops the block path would count as clean skips
// when their operands are clean; runSuperblock subtracts those it found
// tainted.
type sbExit struct {
	done, clean             uint64
	loads, stores, branches uint64
	cyc, stalls, flush      uint64
	loadDst                 isa.Register
	pc                      uint32
}

// sbPart pins one constituent basic block: the superblock is live only
// while every part is still the block in its table slot, which makes
// every existing invalidation path (self-modifying stores, probe
// registration) invalidate superblocks
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
		sb.ops, sb.exits = nil, nil
		return sb
	}
	sb.exits = append(sb.exits, sbExit{pc: entryPC, loadDst: isa.RegZero})
	var (
		run      sbExit // pre-op running totals at the current position
		lastLoad = isa.RegZero
		closed   bool
	)
	addExit := func(e sbExit) uint16 {
		sb.exits = append(sb.exits, e)
		return uint16(len(sb.exits) - 1)
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
			op := sbOp{code: d.fop, pc: pc, dst: uint8(d.dst), a: uint8(d.srcA), b: uint8(d.srcB),
				imm: d.imm, rule: c.prop.Rule(d.in.Op)}
			if sbImmB[d.fop] {
				op.flags |= sbfImmB
			}
			pre := run
			pre.pc = pc
			pre.loadDst = lastLoad
			switch d.kind {
			case isa.KindALU, isa.KindShift, isa.KindCompare:
				if d.kind == isa.KindCompare {
					op.homes = (uint32(1)<<d.srcA | uint32(1)<<d.srcB) &^ 1
				}
				op.exit = addExit(pre)
				run.done++
				run.clean++
				run.cyc += 1 + hz
				run.stalls += hz
				lastLoad = isa.RegZero
			case isa.KindLoad:
				op.exit = addExit(pre)
				run.done++
				run.loads++
				run.cyc += 1 + hz
				run.stalls += hz
				lastLoad = d.dst
			case isa.KindStore:
				op.exit = addExit(pre)
				run.done++
				run.stores++
				run.cyc += 1 + hz
				run.stalls += hz
				lastLoad = isa.RegZero
			case isa.KindBranch:
				if sb.branchGuard {
					op.homes = (uint32(1)<<d.srcA | uint32(1)<<d.srcB) &^ 1
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

// sbImmB marks the dense codes whose second operand is the immediate (the
// operand routing of execALU and execShift).
var sbImmB = [numSbOps]bool{sbLUI: true, sbADDri: true, sbANDri: true, sbORri: true, sbXORri: true,
	sbSLLri: true, sbSRLri: true, sbSRAri: true, sbSLTri: true, sbSLTUri: true}

// sbFinish materializes iters complete iterations plus the partial exit
// record e into the machine's stats and pipeline, and returns the
// resume pc. c.sbTainted counts the retired ops whose operands were not
// clean, which the block path would have counted as tainted steps. The
// second result reports whether any instruction retired: when false the
// machine state is untouched (the caller must then make progress on the
// block path before re-entering this superblock).
func (c *CPU) sbFinish(sb *superblock, iters uint64, e *sbExit) (uint32, bool) {
	if c.sbArms != nil {
		c.sbArms.finish(sb, iters, e.done)
	}
	it := &sb.iter
	done := iters*it.done + e.done
	if done == 0 {
		return e.pc, false
	}
	clean := iters*it.clean + e.clean - c.sbTainted
	c.stats.Instructions += done
	c.stats.CleanSkips += clean
	c.stats.TaintedSteps += done - clean
	c.stats.Loads += iters*it.loads + e.loads
	c.stats.Stores += iters*it.stores + e.stores
	c.stats.Branches += iters*it.branches + e.branches
	c.stats.SuperblockInstrs += done
	c.pipe.cycles += iters*it.cyc + e.cyc + c.sbEntryExtra
	c.pipe.stallCycles += iters*it.stalls + e.stalls + c.sbEntryExtra
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

// sbStore is a trace store: it leaves the trace (exited) before a store
// through a tainted address, one its range guard rejects, or a tainted
// store while taint watches are registered; otherwise it stores the value
// with its taint, as execMemFast does.
func (c *CPU) sbStore(sb *superblock, op *sbOp, iters uint64) (npc uint32, ok, exited bool) {
	if c.regTaint[op.a] != taint.None {
		c.sbArm(armStoreAddr+1, false)
		npc, ok = c.sbExitBefore(sb, op, iters, &c.stats.SbDeoptTaintedAddr)
		return npc, ok, true
	}
	addr := c.regs[op.a] + op.imm
	w := sbWidth[op.code]
	if addr&(w-1) != 0 || addr < c.textEnd {
		c.sbArm(armStoreAddr, false)
		c.sbStoreDeopt(addr, w)
		npc, ok = c.sbFinish(sb, iters, &sb.exits[op.exit])
		return npc, ok, true
	}
	vec := c.regTaint[op.b]
	if vec != taint.None {
		if len(c.watches) != 0 {
			c.sbArm(armStoreAddr, false)
			c.sbArm(armStoreValue+1, false)
			npc, ok = c.sbExitBefore(sb, op, iters, &c.stats.SbDeoptHook)
			return npc, ok, true
		}
		c.sbArm(armStoreValue+1, true)
		if w == 1 {
			vec &= taint.ForWidth(1) // a byte store carries lane 0 only, provenance included
		}
	}
	storeFlat(c.flatMem, w, addr, c.regs[op.b], vec)
	if vec != taint.None && c.prov != nil {
		c.provStore(addr, int(w), isa.Register(op.b))
	}
	if c.homesMask != 0 {
		c.invalidateHomes(addr, int(w))
	}
	return 0, false, false
}

// sbExitBefore leaves the trace before op, which the block path then
// re-executes, and books the deopt under reason.
func (c *CPU) sbExitBefore(sb *superblock, op *sbOp, iters uint64, reason *uint64) (uint32, bool) {
	c.stats.SuperblockDeopts++
	*reason++
	return c.sbFinish(sb, iters, &sb.exits[op.exit])
}

// sbPropagate is execALU and execShift for op i of a trace, in iteration
// iters, whose operands are not clean (or, for a compare, whose homes are
// not): Table 1's rule applied beside the value v the trace computed,
// with the same untaint write-through and provenance hook. The op counts
// as a tainted step.
func (c *CPU) sbPropagate(op *sbOp, v uint32, iters uint64, i int) {
	c.sbTainted++
	a := c.operand(isa.Register(op.a))
	b := c.operand(isa.Register(op.b))
	if op.flags&sbfImmB != 0 {
		b = immOperand(op.imm)
	}
	res := c.prop.Apply(op.rule, a, b)
	if res.UntaintA {
		c.untaintWithHome(a.Reg)
	}
	if res.UntaintB {
		c.untaintWithHome(b.Reg)
	}
	dst := isa.Register(op.dst)
	c.SetReg(dst, v, res.Out)
	if c.prov != nil {
		c.provProp(dst, res.Out, a, b, op.pc, c.sbInstrs(iters, i))
	}
}

// sbInstrs is the exact retired count before op i of iteration iters of
// the running trace (every op is one instruction), for the provenance
// hooks' event timestamps.
func (c *CPU) sbInstrs(iters uint64, i int) uint64 {
	return c.stats.Instructions + iters*c.sbLen + uint64(i)
}

// hooked reports whether tainted-operand ALU work must leave the trace:
// with an event sink and provenance both attached, the block path syncs
// its lazy state before the provenance hook emits events.
func (c *CPU) hooked() bool { return c.events != nil && c.prov != nil }

// The arms of runSuperblock's taint tests, which the generated
// differential must all reach (sbgen_test.go): for each test, its clean
// arm and then its tainted one.
const (
	armALU        = 2 * iota // ALU and shift operands
	armCompare               // compare operands and homes
	armLoadAddr              // load address register
	armLoadValue             // loaded value
	armStoreAddr             // store address register
	armStoreValue            // stored value
	armBranch                // branch operands and homes (branch-untaint ablation)
	numSbArms
)

// sbArmCount is runSuperblock's taint-test coverage, kept only when a test
// asks for it (CPU.sbArms). The clean arms are the traces' fast paths, so
// they are not counted where they run: an arm taken by an op that leaves
// the trace is counted at once, a tainted arm taken by an op that retires
// waits in pending, and at every exit finish credits each retired op's
// tests with the clean arm unless pending says otherwise.
type sbArmCount struct {
	taken   [numSbArms]uint64
	pending [numSbArms]uint64
}

// sbArm records arm as taken by the current op, which retires or leaves
// the trace before retiring. A no-op unless a test armed c.sbArms.
func (c *CPU) sbArm(arm int, retires bool) {
	if a := c.sbArms; a != nil {
		if retires {
			a.pending[arm]++
		} else {
			a.taken[arm]++
		}
	}
}

// finish credits the taint tests of the ops a run retired: every op of
// iters whole iterations and the first partial ops of the last one.
func (a *sbArmCount) finish(sb *superblock, iters, partial uint64) {
	var reached [numSbArms]uint64
	for j := range sb.ops {
		n := iters
		if uint64(j) < partial {
			n++
		}
		switch code := sb.ops[j].code; {
		case code >= sbLUI && code <= sbSRArr:
			reached[armALU] += n
		case code >= sbSLTrr && code <= sbSLTUri:
			reached[armCompare] += n
		case code >= sbLW && code <= sbLHU:
			reached[armLoadAddr] += n
			reached[armLoadValue] += n
		case code >= sbSW && code <= sbSH:
			reached[armStoreAddr] += n
			reached[armStoreValue] += n
		case code >= sbBEQ && code <= sbBGEZ && sb.branchGuard:
			reached[armBranch] += n
		}
	}
	for k := 0; k < numSbArms; k += 2 {
		a.taken[k] += reached[k] - a.pending[k+1]
		a.taken[k+1] += a.pending[k+1]
		a.pending[k+1] = 0
	}
}

// runSuperblock executes the trace until a side exit, a deopt, or the
// instruction budget boundary. The caller has already flushed its
// batched locals (stats and pipe are exact) and checked that at least
// one full iteration fits the budget.
func (c *CPU) runSuperblock(sb *superblock, max uint64) (uint32, bool) {
	ops := sb.ops
	c.sbLen = uint64(len(ops))
	// The entry-edge load-use hazard: charged once if the first op ever
	// retires, mirroring StepBlock's dynamic prevDst at chain entry.
	c.sbEntryExtra, c.sbTainted = 0, 0
	if ld := c.pipe.loadDst; ld != isa.RegZero && (uint8(ld) == sb.hz0a || uint8(ld) == sb.hz0b) {
		c.sbEntryExtra = 1
	}
	iterBudget := ^uint64(0)
	if max > 0 {
		iterBudget = (max - c.stats.Instructions) / c.sbLen
	}
	m := c.flatMem
	var iters uint64
	i := 0
	for {
		op := &ops[i]
		// t is the taint of the op's register operands: ALU operands, a
		// load's address, a store's address and value, a branch's tests.
		t := c.regTaint[op.a] | c.regTaint[op.b]
		var v uint32
		switch op.code {
		case sbNOP:
			i++
			continue
		case sbLUI:
			v = op.imm
		case sbADDrr:
			v = c.regs[op.a] + c.regs[op.b]
		case sbADDri:
			v = c.regs[op.a] + op.imm
		case sbSUBrr:
			v = c.regs[op.a] - c.regs[op.b]
		case sbANDrr:
			v = c.regs[op.a] & c.regs[op.b]
		case sbANDri:
			v = c.regs[op.a] & op.imm
		case sbORrr:
			v = c.regs[op.a] | c.regs[op.b]
		case sbORri:
			v = c.regs[op.a] | op.imm
		case sbXORrr:
			v = c.regs[op.a] ^ c.regs[op.b]
		case sbXORri:
			v = c.regs[op.a] ^ op.imm
		case sbNORrr:
			v = ^(c.regs[op.a] | c.regs[op.b])
		case sbMULrr:
			v = uint32(int32(c.regs[op.a]) * int32(c.regs[op.b]))
		case sbDIVrr:
			a, b := c.regs[op.a], c.regs[op.b]
			switch {
			case b == 0:
				v = 0
			case int32(a) == -1<<31 && int32(b) == -1:
				v = 0x80000000
			default:
				v = uint32(int32(a) / int32(b))
			}
		case sbDIVUrr:
			if b := c.regs[op.b]; b != 0 {
				v = c.regs[op.a] / b
			}
		case sbREMrr:
			a, b := c.regs[op.a], c.regs[op.b]
			if b != 0 && !(int32(a) == -1<<31 && int32(b) == -1) {
				v = uint32(int32(a) % int32(b))
			}
		case sbREMUrr:
			if b := c.regs[op.b]; b != 0 {
				v = c.regs[op.a] % b
			}
		case sbSLLri:
			v = c.regs[op.a] << (op.imm & 31)
		case sbSLLrr:
			v = c.regs[op.a] << (c.regs[op.b] & 31)
		case sbSRLri:
			v = c.regs[op.a] >> (op.imm & 31)
		case sbSRLrr:
			v = c.regs[op.a] >> (c.regs[op.b] & 31)
		case sbSRAri:
			v = uint32(int32(c.regs[op.a]) >> (op.imm & 31))
		case sbSRArr:
			v = uint32(int32(c.regs[op.a]) >> (c.regs[op.b] & 31))
		case sbSLTrr, sbSLTri, sbSLTUrr, sbSLTUri:
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
			// Compares untaint through live memory homes; the op is clean
			// only when that write-through would change nothing.
			if t == taint.None &&
				(op.homes&c.homesMask == 0 || c.homeClean(isa.Register(op.a)) && c.homeClean(isa.Register(op.b))) {
				c.SetReg(isa.Register(op.dst), v, taint.None)
			} else {
				if c.hooked() {
					c.sbArm(armCompare+1, false)
					return c.sbExitBefore(sb, op, iters, &c.stats.SbDeoptHook)
				}
				c.sbArm(armCompare+1, true)
				c.sbPropagate(op, v, iters, i)
			}
			i++
			continue
		case sbLW:
			if t != taint.None {
				c.sbArm(armLoadAddr+1, false)
				return c.sbExitBefore(sb, op, iters, &c.stats.SbDeoptTaintedAddr)
			}
			addr := c.regs[op.a] + op.imm
			if addr < nullPage || addr&3 != 0 {
				c.sbArm(armLoadAddr, false)
				return c.sbExitBefore(sb, op, iters, &c.stats.SbDeoptMemFault)
			}
			w, wv := m.WordAt(addr)
			rd := isa.Register(op.dst)
			c.SetReg(rd, w, wv)
			if wv != taint.None {
				c.sbArm(armLoadValue+1, true)
				if c.prov != nil {
					c.provLoad(rd, addr, op.pc, c.sbInstrs(iters, i))
				}
			}
			c.setHome(rd, addr, 4)
			i++
			continue
		case sbLB, sbLBU, sbLH, sbLHU:
			if t != taint.None {
				c.sbArm(armLoadAddr+1, false)
				return c.sbExitBefore(sb, op, iters, &c.stats.SbDeoptTaintedAddr)
			}
			addr := c.regs[op.a] + op.imm
			w := sbWidth[op.code]
			if addr < nullPage || addr&(w-1) != 0 {
				c.sbArm(armLoadAddr, false)
				return c.sbExitBefore(sb, op, iters, &c.stats.SbDeoptMemFault)
			}
			v, vec := loadFlat(m, op.code, addr)
			rd := isa.Register(op.dst)
			c.SetReg(rd, v, vec)
			if vec != taint.None {
				c.sbArm(armLoadValue+1, true)
				if c.prov != nil {
					c.provLoad(rd, addr, op.pc, c.sbInstrs(iters, i))
				}
			}
			c.setHome(rd, addr, int(w))
			i++
			continue
		case sbSW:
			// The dominant store: sbStore's clean case, inline.
			if t == taint.None {
				// addr < textEnd folds the null-page fault, the
				// self-modifying-text eviction, and text stores into one
				// deopt compare (text sits directly above the null page).
				if addr := c.regs[op.a] + op.imm; addr&3 == 0 && addr >= c.textEnd {
					m.PutWord(addr, c.regs[op.b], taint.None)
					if c.homesMask != 0 {
						c.invalidateHomes(addr, 4)
					}
					i++
					continue
				}
			}
			if npc, ok, exited := c.sbStore(sb, op, iters); exited {
				return npc, ok
			}
			i++
			continue
		case sbSB, sbSH:
			if npc, ok, exited := c.sbStore(sb, op, iters); exited {
				return npc, ok
			}
			i++
			continue
		case sbBEQ, sbBNE, sbBLEZ, sbBGTZ, sbBLTZ, sbBGEZ:
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
			if sb.branchGuard {
				// The branch-untaint ablation: execBranch's rule, inline.
				dirty := t != taint.None ||
					op.homes&c.homesMask != 0 && !(c.homeClean(isa.Register(op.a)) && c.homeClean(isa.Register(op.b)))
				if dirty {
					c.sbArm(armBranch+1, true)
					c.untaintWithHome(isa.Register(op.a))
					c.untaintWithHome(isa.Register(op.b))
					c.sbTainted++
				}
			}
			if c.cov != nil {
				to := op.pc + 4
				if taken {
					to = op.tgt
				}
				c.cov.hit(op.pc, to)
			}
			if taken != (op.flags&sbfExpTaken != 0) {
				return c.sbFinish(sb, iters, &sb.exits[op.exitT])
			}
			if op.flags&sbfLoop != 0 {
				iters++
				if iters >= iterBudget {
					return c.sbFinish(sb, iters, &sb.exits[0])
				}
				i = 0
				continue
			}
			i++
			continue
		case sbJMP:
			if c.cov != nil {
				c.cov.hit(op.pc, op.tgt)
			}
			if op.flags&sbfLoop != 0 {
				iters++
				if iters >= iterBudget {
					return c.sbFinish(sb, iters, &sb.exits[0])
				}
				i = 0
				continue
			}
			i++
			continue
		}
		// ALU and shift ops: Table 1 beside the value.
		if t == taint.None {
			c.SetReg(isa.Register(op.dst), v, taint.None)
		} else {
			if c.hooked() {
				c.sbArm(armALU+1, false)
				return c.sbExitBefore(sb, op, iters, &c.stats.SbDeoptHook)
			}
			c.sbArm(armALU+1, true)
			c.sbPropagate(op, v, iters, i)
		}
		i++
	}
}
