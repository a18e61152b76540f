package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/taint"
)

// maxBlockLen bounds one predecoded basic block, in instructions. Blocks
// end at the first control transfer or trap anyway; the cap only limits
// pathological straight-line runs and the backward scan in evictBlocksAt.
const maxBlockLen = 128

// decIns is one fully predecoded instruction of a basic block: the decoded
// form plus everything the dispatch loop would otherwise recompute per
// execution — the taint-datapath kind, the dense op code, the source
// registers whose taint decides the clean-operand short-circuit, and the
// operand routing (dst/imm). srcA/srcB are RegZero when unused, which is
// safe on every use: $zero reads as 0 with taint None and its regHome is
// never live, and the load-use hazard check in StepBlock's retire
// accounting compares them against a destination that is never $zero.
type decIns struct {
	in     isa.Instruction
	kind   isa.Kind
	srcA   isa.Register
	srcB   isa.Register
	dst    isa.Register // ALU/compare/shift/load destination
	fop    uint8        // dense op code (denseOps) shared by both fast tiers
	isLoad bool
	ctl    bool   // control transfer: the only ops whose nextPC needs the pc checks
	imm    uint32 // extended immediate, shift amount, lui constant or memory offset; 0 in register forms
}

// Dense op codes: the one op-code space of both fast tiers. Predecode
// assigns each instruction its code from denseOps; StepBlock's clean paths
// and execMemFast dispatch on decIns.fop, and buildSuperblock copies it
// into sbOp.code. ALU codes name the operand form (rr: two registers, ri:
// register and immediate) so the superblock's switch can specialise each
// form; the block path shares one case per operation, because predecode
// routes an unused source to $zero and an unused immediate to 0, making
// the second operand regs[srcB] | imm in both forms. The consecutive
// values make every dispatch switch a jump table.
const (
	sbNone = iota // no fast form: calls, register jumps, traps
	sbNOP
	sbLUI
	sbADDrr
	sbADDri
	sbSUBrr
	sbANDrr
	sbANDri
	sbORrr
	sbORri
	sbXORrr
	sbXORri
	sbNORrr
	sbMULrr
	sbDIVrr
	sbDIVUrr
	sbREMrr
	sbREMUrr
	sbSLLri
	sbSLLrr
	sbSRLri
	sbSRLrr
	sbSRAri
	sbSRArr
	sbSLTrr
	sbSLTri
	sbSLTUrr
	sbSLTUri
	sbLW
	sbLB
	sbLBU
	sbLH
	sbLHU
	sbSW
	sbSB
	sbSH
	sbBEQ
	sbBNE
	sbBLEZ
	sbBGTZ
	sbBLTZ
	sbBGEZ
	sbJMP
	numSbOps
)

// denseOps is the op-code table: every isa.Opcode's dense code (sbNone
// where neither fast tier specialises the op).
var denseOps = [isa.NumOpcodes + 1]uint8{
	isa.OpLUI: sbLUI,
	isa.OpADD: sbADDrr, isa.OpADDU: sbADDrr, isa.OpADDI: sbADDri, isa.OpADDIU: sbADDri,
	isa.OpSUB: sbSUBrr, isa.OpSUBU: sbSUBrr,
	isa.OpAND: sbANDrr, isa.OpANDI: sbANDri,
	isa.OpOR: sbORrr, isa.OpORI: sbORri,
	isa.OpXOR: sbXORrr, isa.OpXORI: sbXORri,
	isa.OpNOR: sbNORrr, isa.OpMUL: sbMULrr,
	isa.OpDIV: sbDIVrr, isa.OpDIVU: sbDIVUrr, isa.OpREM: sbREMrr, isa.OpREMU: sbREMUrr,
	isa.OpSLL: sbSLLri, isa.OpSLLV: sbSLLrr,
	isa.OpSRL: sbSRLri, isa.OpSRLV: sbSRLrr,
	isa.OpSRA: sbSRAri, isa.OpSRAV: sbSRArr,
	isa.OpSLT: sbSLTrr, isa.OpSLTI: sbSLTri, isa.OpSLTU: sbSLTUrr, isa.OpSLTIU: sbSLTUri,
	isa.OpLW: sbLW, isa.OpLB: sbLB, isa.OpLBU: sbLBU, isa.OpLH: sbLH, isa.OpLHU: sbLHU,
	isa.OpSW: sbSW, isa.OpSB: sbSB, isa.OpSH: sbSH,
	isa.OpBEQ: sbBEQ, isa.OpBNE: sbBNE, isa.OpBLEZ: sbBLEZ,
	isa.OpBGTZ: sbBGTZ, isa.OpBLTZ: sbBLTZ, isa.OpBGEZ: sbBGEZ,
	isa.OpJ: sbJMP, isa.OpNOP: sbNOP,
}

// sbWidth is each memory code's access width in bytes.
var sbWidth = [numSbOps]uint32{sbLW: 4, sbLB: 1, sbLBU: 1, sbLH: 2, sbLHU: 2, sbSW: 4, sbSB: 1, sbSH: 2}

// decBlock is one predecoded basic block, published in the block table
// slot of its first instruction's word. A published block is immutable —
// family members may be dispatching it — so a store into its text range
// (invalidateText) evicts it by clearing the slot, and the next dispatch
// rebuilds from the current memory bytes. ord is the slot's dense ordinal,
// the index of the entry's per-machine superblock state.
type decBlock struct {
	ins []decIns
	ord uint32
}

// seenAt reports whether this machine has dispatched the block entered at
// text word idx (or inherited it from its snapshot). A seen block is
// always present in the table.
func (c *CPU) seenAt(idx uint32) bool {
	return c.seen[idx>>6]&(1<<(idx&63)) != 0
}

// firstDispatch returns the block entered at text word idx on its first
// dispatch in this machine — reusing one a family member already
// published, or building and publishing it — and marks it seen. nil when
// not even the first word decodes. The caller counts the BlockMiss.
func (c *CPU) firstDispatch(idx uint32) *decBlock {
	s := &c.text.slots[idx]
	b := s.block.Load()
	if b == nil {
		if b = c.buildBlock(idx); b == nil {
			return nil
		}
		b = c.text.publish(s, b)
	}
	c.seen[idx>>6] |= 1 << (idx & 63)
	return b
}

// taintSources returns the registers whose taint feeds the instruction's
// datapath (RegZero for unused slots). The register set equals the one
// usesReg consults, so the same pair drives both the clean-operand
// short-circuit and the fast load-use hazard check.
func taintSources(in isa.Instruction) (a, b isa.Register) {
	switch in.Op.Kind() {
	case isa.KindALU, isa.KindCompare:
		switch in.Op {
		case isa.OpLUI:
			return isa.RegZero, isa.RegZero
		case isa.OpADDI, isa.OpADDIU, isa.OpSLTI, isa.OpSLTIU,
			isa.OpANDI, isa.OpORI, isa.OpXORI:
			return in.Rs, isa.RegZero
		}
		return in.Rs, in.Rt
	case isa.KindShift:
		if in.Op == isa.OpSLL || in.Op == isa.OpSRL || in.Op == isa.OpSRA {
			return in.Rt, isa.RegZero
		}
		return in.Rt, in.Rs
	case isa.KindLoad, isa.KindJumpReg:
		return in.Rs, isa.RegZero
	case isa.KindStore:
		return in.Rs, in.Rt
	case isa.KindBranch:
		if in.Op == isa.OpBEQ || in.Op == isa.OpBNE {
			return in.Rs, in.Rt
		}
		return in.Rs, isa.RegZero
	}
	return isa.RegZero, isa.RegZero
}

// TaintSources exposes the operand-register mapping of the clean-operand
// short-circuit, so the static analyzer reasons about exactly the
// registers whose taint the runtime reads.
func TaintSources(in isa.Instruction) (a, b isa.Register) {
	return taintSources(in)
}

// flushBlocks drops every predecoded block. Called when a probe is added:
// blocks must never span a probed pc except at their entry, where StepBlock
// runs the probes.
func (c *CPU) flushBlocks() {
	if c.text == nil {
		return
	}
	c.ownText()
	for i := range c.text.slots {
		c.text.slots[i].block.Store(nil)
	}
	clear(c.seen)
}

// evictBlocksAt evicts every block containing the text word at idx from a
// table this CPU owns (the caller has run ownText). Blocks are at most
// maxBlockLen long, so only entries in the preceding window can span idx —
// this is what keeps a store that overlaps a block's interior or tail (not
// just its entry word) from leaving stale code live.
func (c *CPU) evictBlocksAt(idx uint32) {
	lo := uint32(0)
	if idx >= maxBlockLen-1 {
		lo = idx - (maxBlockLen - 1)
	}
	slots := c.text.slots
	for j := lo; j <= idx && j < uint32(len(slots)); j++ {
		if b := slots[j].block.Load(); b != nil && j+uint32(len(b.ins)) > idx {
			slots[j].block.Store(nil)
			c.seen[j>>6] &^= 1 << (j & 63)
		}
	}
}

// buildBlock predecodes the straight-line run starting at text word idx,
// stopping at the first control transfer or trap, a null or undecodable
// word, the end of the text segment, a probed pc (which must stay a block
// entry), or maxBlockLen. Returns nil when not even the first word decodes
// — the caller falls back to the reference step, which raises the same
// fault the reference interpreter would.
func (c *CPU) buildBlock(idx uint32) *decBlock {
	base := c.textBase + idx*4
	var run [maxBlockLen]isa.Instruction
	n := isa.PredecodeRun(run[:min(maxBlockLen, len(c.text.slots)-int(idx))], func(i int) (uint32, bool) {
		pc := base + uint32(i)*4
		if i > 0 && c.probes != nil {
			if _, ok := c.probes[pc]; ok {
				return 0, false
			}
		}
		w, _, err := c.bus.LoadWord(pc)
		return w, err == nil
	})
	if n == 0 {
		return nil
	}
	b := &decBlock{ins: make([]decIns, n)}
	// Text normally sits far above the null page, making the per-step
	// nextPC checks provably redundant for straight-line flow; when an image
	// places text adjacent to the guard page (or at the top of the address
	// space), force the checks on every instruction instead.
	forceTail := base < nullPage || base > ^uint32(0)-uint32(maxBlockLen)*4
	for i, in := range run[:n] {
		srcA, srcB := taintSources(in)
		d := decIns{
			in:     in,
			kind:   in.Op.Kind(),
			srcA:   srcA,
			srcB:   srcB,
			fop:    denseOps[in.Op],
			isLoad: in.Op.IsLoad(),
		}
		// Operand routing, mirroring execALU/execShift/execMem's selection.
		switch in.Op {
		case isa.OpLUI:
			d.imm = in.UImm() << 16
		case isa.OpSLTIU, isa.OpANDI, isa.OpORI, isa.OpXORI:
			d.imm = in.UImm()
		case isa.OpSLL, isa.OpSRL, isa.OpSRA:
			d.imm = uint32(in.Shamt)
		case isa.OpADDI, isa.OpADDIU, isa.OpSLTI, isa.OpLB, isa.OpLBU, isa.OpLH,
			isa.OpLHU, isa.OpLW, isa.OpSB, isa.OpSH, isa.OpSW:
			d.imm = uint32(in.Imm)
		}
		switch d.kind {
		case isa.KindALU, isa.KindCompare, isa.KindShift, isa.KindLoad:
			d.dst = in.Rd
			if in.Op.Format() == isa.FormatI {
				d.dst = in.Rt
			}
		case isa.KindBranch, isa.KindJump, isa.KindJumpReg:
			d.ctl = true
		}
		if forceTail {
			d.ctl = true
		}
		b.ins[i] = d
		// Share the work with the per-word decode so the reference fallback
		// (probes, tracing) needn't refetch; every word of the run is in text.
		c.text.slots[idx+uint32(i)].ins.Store(&b.ins[i].in)
	}
	return b
}

// execALUClean is execALU/execShift for the case where every source operand
// is untainted: the Table 1 rules then yield an untainted result and no
// observable operand-untaint side effects (for compares the caller
// additionally checks homeClean on both sources), so the Propagate call is
// skipped entirely. Operand routing and the dense op code come precomputed
// from the block: b = regs[srcB] | imm serves register and immediate forms
// alike, and the consecutive codes compile to a jump table. Shifts run here
// too (a is the datum, b the amount).
func (c *CPU) execALUClean(d *decIns) {
	a, b := c.regs[d.srcA], c.regs[d.srcB]|d.imm
	var v uint32
	switch d.fop {
	case sbLUI, sbADDrr, sbADDri: // lui is $zero + its pre-shifted constant
		v = a + b
	case sbSUBrr:
		v = a - b
	case sbANDrr, sbANDri:
		v = a & b
	case sbORrr, sbORri:
		v = a | b
	case sbXORrr, sbXORri:
		v = a ^ b
	case sbNORrr:
		v = ^(a | b)
	case sbMULrr:
		v = uint32(int32(a) * int32(b))
	case sbDIVrr:
		switch {
		case b == 0:
			v = 0
		case int32(a) == -1<<31 && int32(b) == -1:
			v = 0x80000000
		default:
			v = uint32(int32(a) / int32(b))
		}
	case sbDIVUrr:
		if b != 0 {
			v = a / b
		}
	case sbREMrr:
		if b != 0 && !(int32(a) == -1<<31 && int32(b) == -1) {
			v = uint32(int32(a) % int32(b))
		}
	case sbREMUrr:
		if b != 0 {
			v = a % b
		}
	case sbSLTrr, sbSLTri:
		if int32(a) < int32(b) {
			v = 1
		}
	case sbSLTUrr, sbSLTUri:
		if a < b {
			v = 1
		}
	case sbSLLrr, sbSLLri:
		v = a << (b & 31)
	case sbSRLrr, sbSRLri:
		v = a >> (b & 31)
	case sbSRArr, sbSRAri:
		v = uint32(int32(a) >> (b & 31))
	}
	c.SetReg(d.dst, v, taint.None)
}

// homeClean reports whether untainting r's memory home would be
// unobservable: no live home link, or — on flat memory, where the probe
// has no timing side effects — a home span with no tainted bytes. Through
// a cache port a live home must be treated as dirty.
func (c *CPU) homeClean(r isa.Register) bool {
	if c.homesMask&(1<<r) == 0 {
		return true
	}
	if c.flatMem == nil {
		return false
	}
	h := c.regHomes[r]
	return !c.flatMem.SpanTainted(h.addr, int(h.width))
}

// execMemFast is execMem for the common fast-path case: an untainted address
// register on flat memory. No dereference detector can fire on an untainted
// address vector (CheckMemAccess is vacuous there under every policy), the
// bus devirtualizes to *mem.Memory, and the op code, offset, and
// destination come precomputed from the block. pc is the instruction's own
// address, written back only on the paths that can observe it (faults and
// watch alerts); the caller owns c.pc otherwise. instrs is the exact
// retired count including the caller's batched locals, consumed only by
// the provenance hooks (their events timestamp against it).
func (c *CPU) execMemFast(d *decIns, pc uint32, instrs uint64) error {
	addr := c.regs[d.srcA] + d.imm
	if addr < nullPage {
		c.pc = pc
		return c.fault("segmentation fault: null-page access")
	}
	w := sbWidth[d.fop]
	if d.isLoad {
		if addr&(w-1) != 0 {
			c.pc = pc
			return c.fault((&mem.AlignmentError{Addr: addr, Width: int(w)}).Error())
		}
		v, vec := loadFlat(c.flatMem, d.fop, addr)
		c.SetReg(d.dst, v, vec)
		if vec != taint.None && c.prov != nil {
			c.provLoad(d.dst, addr, pc, instrs)
		}
		c.setHome(d.dst, addr, int(w))
		c.stats.Loads++
		return nil
	}
	vec := c.regTaint[d.srcB]
	if vec != taint.None && len(c.watches) != 0 {
		c.pc = pc
		if err := c.watchedStoreTaint(d.in.Op, addr, vec); err != nil {
			return err
		}
	}
	if addr&(w-1) != 0 {
		c.pc = pc
		return c.fault((&mem.AlignmentError{Addr: addr, Width: int(w)}).Error())
	}
	if w == 1 {
		vec &= taint.ForWidth(1) // a byte store carries lane 0 only, provenance included
	}
	storeFlat(c.flatMem, w, addr, c.regs[d.srcB], vec)
	if vec != taint.None && c.prov != nil {
		c.provStore(addr, int(w), d.srcB)
	}
	if c.homesMask != 0 {
		c.invalidateHomes(addr, int(w))
	}
	if addr < c.textEnd {
		c.invalidateText(addr, int(w))
	}
	c.stats.Stores++
	return nil
}

// loadFlat is the fast tiers' load rule (execMem holds the reference's):
// the value at an aligned addr, zero- or sign-extended to a word, with its
// taint. A signed load whose top loaded byte is tainted taints the whole
// word, because the sign bytes derive from that byte.
func loadFlat(m *mem.Memory, code uint8, addr uint32) (v uint32, vec taint.Vec) {
	w := sbWidth[code]
	switch w {
	case 1:
		b, tt := m.LoadByte(addr)
		if v = uint32(b); tt {
			vec = taint.ForWidth(1)
		}
	case 2:
		h, hv := m.HalfAt(addr)
		v, vec = uint32(h), hv
	default:
		return m.WordAt(addr)
	}
	if code == sbLB || code == sbLH {
		sh := 32 - 8*w
		v = uint32(int32(v<<sh) >> sh)
		if vec.Byte(int(w) - 1) {
			vec = taint.Word
		}
	}
	return v, vec
}

// storeFlat writes the low w bytes of v, with vec's low w taint lanes, at
// an aligned addr.
func storeFlat(m *mem.Memory, w, addr, v uint32, vec taint.Vec) {
	switch w {
	case 1:
		m.StoreByte(addr, byte(v), vec.Byte(0))
	case 2:
		m.PutHalf(addr, uint16(v), vec)
	default:
		m.PutWord(addr, v, vec)
	}
}

// StepBlock executes one predecoded basic block — or the prefix allowed by
// the remaining instruction budget when max > 0 — and returns exactly what
// the equivalent sequence of Step calls would: the same alerts at the same
// pcs and retired-instruction counts, the same faults, the same register,
// taint, memory, and pipeline state (differential_test.go holds it to
// that). Unlike Step it does not emit trace output; RunFast routes traced
// execution through Step.
//
// Host callbacks can only run at block boundaries — probes fire at block
// entry (buildBlock never extends a block past a probed pc) and syscalls
// terminate a block — so a callback that registers probes or rewrites
// state is observed before the next instruction executes, as with Step.
func (c *CPU) StepBlock(max uint64) error {
	if c.probes != nil {
		pc0 := c.pc
		for _, fn := range c.probes[pc0] {
			fn(c)
		}
		if c.pc != pc0 || c.halted {
			// The probe redirected or halted the machine; execute a single
			// instruction without re-running probes, as Step would.
			return c.stepOne()
		}
	}
	if c.text == nil || c.pc&3 != 0 {
		return c.stepOne()
	}
	// c.pc is written lazily: only before operations whose alert, fault,
	// or host-callback paths can observe it (memory ops, jump-register,
	// system traps) and when control leaves the chain. Straight-line work
	// tracks the pc in a local. The retired-instruction counters and the
	// pipeline's per-retire accounting (base cycle, load-use hazard state)
	// batch the same way: they accumulate in locals and flush into
	// c.stats / c.pipe before any path on which they are observable
	// (alerts, host callbacks, every return).
	//
	// Consecutive blocks chain inside this one call — after a block falls
	// through, branches, or jumps, the next block dispatches immediately
	// with the batched locals still live, so the dispatch and flush costs
	// amortize over whole runs of blocks. The chain breaks (and the locals
	// flush) at every host-visible boundary: a halt, a probe set appearing
	// (a probed pc must get its callbacks on the next dispatch), the
	// instruction budget, any fault or alert, or a pc the block cache
	// cannot serve.
	pc := c.pc
	var done, cleanN, cyc, stalls uint64
	prevDst := c.pipe.loadDst
	// sbSkip suppresses superblock re-entry at one index after a deopt
	// that retired nothing: the block path must execute the deopting
	// instruction before the trace is attempted again, or a standing
	// guard failure at the trace's first op would livelock the chain.
	sbSkip := ^uint32(0)
chain:
	for {
		idx := (pc - c.textBase) >> 2
		if idx >= uint32(len(c.text.slots)) {
			break // fall back to the reference step for this pc
		}
		var b *decBlock
		if c.seenAt(idx) {
			b = c.text.slots[idx].block.Load()
			c.stats.BlockHits++
		} else {
			if b = c.firstDispatch(idx); b == nil {
				break
			}
			c.stats.BlockMisses++
		}
		n := len(b.ins)
		if max > 0 {
			executed := c.stats.Instructions + done
			if executed >= max {
				c.pc = pc
				c.flushRetired(done, cleanN)
				c.flushPipe(cyc, stalls, prevDst)
				return &StepBudgetError{PC: pc, Steps: executed}
			}
			if rem := max - executed; uint64(n) > rem {
				n = int(rem)
			}
		}
		// Superblock tier: on the conditions under which StepBlock itself
		// runs its clean inlined paths (flat memory, no probes, no
		// per-opcode profiling), count this dispatch toward the entry's
		// heat and, once compiled, run the fused trace with the batched
		// locals flushed — the superblock writes c.stats and c.pipe
		// directly at its exits.
		if !c.sbOff && c.probes == nil && c.profile == nil && c.flatMem != nil {
			o := b.ord
			if o >= uint32(len(c.sbHeat)) {
				c.growSuperblocks(o)
			}
			if sb := c.sblocks[o]; sb == nil {
				if c.sbHeat[o] >= sbHotThreshold {
					c.sblocks[o], c.sbBad[o] = c.compileSuperblock(idx), 0
				} else {
					c.sbHeat[o]++
				}
			} else if sb != sbUnfusable && idx == sbSkip {
				sbSkip = ^uint32(0) // consumed: the block path takes this one dispatch
			} else if sb != sbUnfusable {
				switch {
				case !c.sbShared && !sb.live(c):
					// A constituent block was rebuilt or invalidated by a
					// text store; recompile only after the entry re-heats.
					// Counted as a deopt. Only a machine holding traces
					// from a table it has since changed can get here: a
					// shared table's slots never change. (A probe flush
					// kills traces too, but a machine with probes never
					// dispatches a trace again.)
					c.stats.SuperblockDeopts++
					c.stats.SbDeoptSelfModify++
					c.sblocks[o] = nil
					c.sbHeat[o] = 0
				case max == 0 || max-(c.stats.Instructions+done) >= uint64(len(sb.ops)):
					c.pc = pc
					c.flushRetired(done, cleanN)
					c.flushPipe(cyc, stalls, prevDst)
					done, cleanN, cyc, stalls = 0, 0, 0, 0
					c.stats.SuperblockRuns++
					npc, progressed := c.runSuperblock(sb, max)
					pc = npc
					prevDst = c.pipe.loadDst
					if progressed {
						sbSkip = ^uint32(0)
					} else {
						sbSkip = idx
						if c.sbBad[o]++; c.sbBad[o] > sbMaxBadEntries {
							c.sblocks[o] = sbUnfusable
						}
					}
					continue chain
				default:
					// The budget cannot fit one iteration: a bad entry,
					// but no specialization failure.
					if c.sbBad[o]++; c.sbBad[o] > sbMaxBadEntries {
						c.sblocks[o] = sbUnfusable
					}
				}
			}
		}
		ins := b.ins[:n]
		for i := range ins {
			d := &ins[i]
			nextPC := pc + 4
			clean := false
			switch d.kind {
			case isa.KindALU:
				if c.regTaint[d.srcA]|c.regTaint[d.srcB] == taint.None {
					// The add family (address arithmetic, loop counters)
					// dominates; run it without the execALUClean call.
					if d.fop == sbADDri || d.fop == sbADDrr {
						c.SetReg(d.dst, c.regs[d.srcA]+(c.regs[d.srcB]|d.imm), taint.None)
					} else {
						c.execALUClean(d)
					}
					clean = true
				} else {
					c.execALU(d.in, pc, c.stats.Instructions+done)
				}
			case isa.KindCompare:
				// Compares untaint their source registers and write the
				// untaint through to live memory homes; short-circuit only
				// when that write-through would be unobservable.
				if c.regTaint[d.srcA]|c.regTaint[d.srcB] == taint.None &&
					c.homeClean(d.srcA) && c.homeClean(d.srcB) {
					c.execALUClean(d)
					clean = true
				} else {
					c.execALU(d.in, pc, c.stats.Instructions+done)
				}
			case isa.KindShift:
				if c.regTaint[d.srcA]|c.regTaint[d.srcB] == taint.None {
					c.execALUClean(d)
					clean = true
				} else {
					c.execShift(d.in, pc, c.stats.Instructions+done)
				}
			case isa.KindLoad, isa.KindStore:
				if c.flatMem != nil && c.regTaint[d.srcA] == taint.None {
					// No detector or cache penalty applies to an untainted
					// address; skip the bus interface and the policy probe
					// entirely. Word accesses to clean in-bounds aligned
					// addresses dominate, so they additionally skip the
					// execMemFast call; every other case (other widths,
					// fault paths, tainted store values that may hit a
					// watch) takes it.
					if addr := c.regs[d.srcA] + d.imm; d.fop == sbLW &&
						addr >= nullPage && addr&3 == 0 {
						w, wv := c.flatMem.WordAt(addr)
						c.SetReg(d.dst, w, wv)
						if wv != taint.None && c.prov != nil {
							// A clean-address load of a tainted word is a
							// taint birth; the guard keeps the dominant
							// clean-load case branch-predictable and free.
							c.provLoad(d.dst, addr, pc, c.stats.Instructions+done)
						}
						c.setHome(d.dst, addr, 4)
						c.stats.Loads++
						prevDst = d.dst
					} else if d.fop == sbSW && addr >= nullPage && addr&3 == 0 &&
						c.regTaint[d.srcB] == taint.None {
						c.flatMem.PutWord(addr, c.regs[d.srcB], taint.None)
						if c.homesMask != 0 {
							c.invalidateHomes(addr, 4)
						}
						if addr < c.textEnd {
							c.invalidateText(addr, 4)
						}
						c.stats.Stores++
						prevDst = isa.RegZero
					} else if err := c.execMemFast(d, pc, c.stats.Instructions+done); err != nil {
						c.flushRetired(done, cleanN)
						c.flushPipe(cyc, stalls, prevDst)
						return err
					} else if d.isLoad {
						// The pipe.Load / pipe.Store effect, tracked locally.
						prevDst = d.dst
					} else {
						prevDst = isa.RegZero
					}
				} else {
					c.pc = pc
					c.flushRetired(done, cleanN)
					c.flushPipe(cyc, stalls, prevDst)
					done, cleanN, cyc, stalls = 0, 0, 0, 0
					if err := c.execMem(d.in); err != nil {
						return err
					}
					if c.penalties != nil {
						c.pipe.MemoryPenalty(c.penalties.DrainPenalty())
					}
					prevDst = c.pipe.loadDst
				}
			case isa.KindBranch:
				// The branch-untaint rule is skippable on the same terms as
				// the compare rule; the condition itself is taint-free.
				var taken bool
				if !c.prop.BranchUntaint() ||
					(c.regTaint[d.srcA]|c.regTaint[d.srcB] == taint.None &&
						c.homeClean(d.srcA) && c.homeClean(d.srcB)) {
					taken = branchTaken(d.in.Op, c.regs[d.in.Rs], c.regs[d.in.Rt])
					c.stats.Branches++
					clean = true
				} else {
					taken = c.execBranch(d.in)
				}
				if taken {
					nextPC = isa.BranchTarget(pc, d.in)
				}
				if c.cov != nil {
					c.cov.hit(pc, nextPC)
				}
				c.pipe.Branch(taken)
			case isa.KindJump:
				if d.in.Op == isa.OpJAL {
					c.SetReg(isa.RegRA, pc+4, taint.None)
				}
				nextPC = isa.JumpTarget(pc, d.in)
				if c.cov != nil {
					c.cov.hit(pc, nextPC)
				}
				c.pipe.Jump()
			case isa.KindJumpReg:
				// On an untainted target the control-hijack detector
				// (CheckJumpReg) is vacuous under every policy: skip it.
				if tv := c.regTaint[d.in.Rs]; tv != taint.None {
					// Sync the lazy state so the event's retired count and
					// the alert are exact, then run the detector (tainted jr
					// is a once-per-run event, usually an alert).
					c.pc = pc
					c.flushRetired(done, cleanN)
					c.flushPipe(cyc, stalls, prevDst)
					done, cleanN, cyc, stalls = 0, 0, 0, 0
					if c.events != nil {
						c.events.Emit(Event{
							Kind:   EvDerefCheck,
							Instrs: c.stats.Instructions,
							PC:     pc,
							Reg:    d.in.Rs,
							Value:  c.regs[d.in.Rs],
							Taint:  tv,
							Label:  c.RegProvLabel(d.in.Rs),
						})
					}
					if kind, bad := c.policy.CheckJumpReg(tv); bad {
						c.pipe.Retire(d.in)
						c.stats.Instructions++
						c.stats.TaintedSteps++
						if c.profile != nil {
							c.profile[d.in.Op]++
						}
						return c.alert(kind, StageIDEX, d.in, d.in.Rs)
					}
				}
				target := c.regs[d.in.Rs]
				if d.in.Op == isa.OpJALR {
					c.SetReg(d.in.Rd, pc+4, taint.None)
				}
				nextPC = target
				if c.cov != nil {
					c.cov.hit(pc, nextPC)
				}
				c.pipe.Jump()
			case isa.KindSystem:
				c.pc = pc
				c.flushRetired(done, cleanN)
				c.flushPipe(cyc, stalls, prevDst)
				done, cleanN, cyc, stalls = 0, 0, 0, 0
				switch d.in.Op {
				case isa.OpSYSCALL:
					if c.handler == nil {
						return c.fault("syscall with no handler")
					}
					c.stats.Syscalls++
					if c.events != nil {
						c.emitSyscall()
					}
					if err := c.handler.Syscall(c); err != nil {
						return err
					}
				case isa.OpBREAK:
					return c.fault("break instruction")
				case isa.OpNOP:
					clean = true // the taint datapath is inert
				}
				// Resync in case the host callback observed or touched the pipe.
				prevDst = c.pipe.loadDst
			}
			// The retire step on locals — Pipeline.Retire's base cycle, load-use
			// hazard charge, and next-slot load flag, without the struct traffic.
			cyc++
			if prevDst != isa.RegZero && (d.srcA == prevDst || d.srcB == prevDst) {
				cyc++
				stalls++
			}
			if !d.isLoad {
				prevDst = isa.RegZero
			}
			done++
			if clean {
				cleanN++
			}
			if c.profile != nil {
				c.profile[d.in.Op]++
			}
			if d.ctl {
				// Only a control transfer (or a block pinned near the address-
				// space edges by buildBlock) can produce a misaligned or
				// null-page nextPC; straight-line flow stays inside text.
				if nextPC&3 != 0 {
					c.pc = nextPC
					c.flushRetired(done, cleanN)
					c.flushPipe(cyc, stalls, prevDst)
					return c.fault("misaligned pc")
				}
				if nextPC < nullPage {
					c.pc = nextPC
					c.flushRetired(done, cleanN)
					c.flushPipe(cyc, stalls, prevDst)
					return c.fault("segmentation fault: jump into the null page")
				}
			}
			if d.kind == isa.KindStore && c.text.slots[idx].block.Load() != b {
				// The store rewrote this block's own text and evicted it;
				// re-dispatch so the fresh bytes are decoded.
				pc = nextPC
				continue chain
			}
			pc = nextPC
		}
		if c.halted || c.probes != nil {
			c.pc = pc
			c.flushRetired(done, cleanN)
			c.flushPipe(cyc, stalls, prevDst)
			return nil
		}
	}
	c.pc = pc
	c.flushRetired(done, cleanN)
	c.flushPipe(cyc, stalls, prevDst)
	return c.stepOne()
}

// flushRetired credits done batched block-retirements into the per-step
// counters, cleanN of them having taken a clean-operand short-circuit.
func (c *CPU) flushRetired(done, cleanN uint64) {
	c.stats.Instructions += done
	c.stats.CleanSkips += cleanN
	c.stats.TaintedSteps += done - cleanN
}

// flushPipe credits the batched base and stall cycles and restores the
// load-use hazard state that StepBlock tracks in locals.
func (c *CPU) flushPipe(cyc, stalls uint64, loadDst isa.Register) {
	c.pipe.cycles += cyc
	c.pipe.stallCycles += stalls
	c.pipe.loadDst = loadDst
}

// RunFast is Run on the predecoded basic-block fast path: identical
// semantics and observable machine state, lower per-instruction cost.
// Traced execution falls back to the reference interpreter so the trace
// stays per-instruction. Like Run it converts watchdog trips to
// *StepBudgetError, honors InjectAt at the same retired count as the
// reference interpreter (block chains are clamped at the trigger), and
// recovers host panics into structured errors.
func (c *CPU) RunFast(maxInstructions uint64) (err error) {
	defer c.recoverGuestFault(&err)
	for !c.halted {
		if maxInstructions > 0 && c.stats.Instructions >= maxInstructions {
			return &StepBudgetError{PC: c.pc, Steps: c.stats.Instructions}
		}
		if c.injectionDue() {
			c.fireInjection()
			continue
		}
		// An armed injection clamps the block budget so the chain breaks
		// exactly at the trigger's instruction boundary.
		limit := maxInstructions
		if c.injectFn != nil && (limit == 0 || c.injectAt < limit) {
			limit = c.injectAt
		}
		var serr error
		if c.tracer != nil {
			serr = c.Step()
		} else {
			serr = c.StepBlock(limit)
		}
		if serr != nil {
			if _, ok := serr.(*StepBudgetError); ok &&
				c.injectFn != nil && c.stats.Instructions >= c.injectAt &&
				(maxInstructions == 0 || c.stats.Instructions < maxInstructions) {
				continue // the clamp tripped at the injection trigger, not the budget
			}
			return serr
		}
	}
	if c.exitCode != 0 {
		return &ExitError{Code: c.exitCode}
	}
	return nil
}
