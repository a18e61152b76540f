// Package cpu implements the pointer-taintedness machine: a functional
// 32-bit RISC execution engine whose register file and datapath carry
// per-byte taint bits, with the three dereference detectors of the DSN 2005
// paper (load address, store address, jump-register target) and a 5-stage
// in-order pipeline timing model that places the detectors at the stages
// described in Section 4.3.
package cpu

import (
	"io"
	"math/bits"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/taint"
)

// nullPage is the size of the unmapped guard page at address zero; data
// accesses and jumps below it raise a segmentation fault, so null-pointer
// bugs crash as they would on a real OS.
const nullPage = 0x1000

// SyscallHandler executes the machine's system calls. On OpSYSCALL the CPU
// invokes the handler with itself; the handler reads the syscall number
// from $v0 and arguments from $a0-$a3, and may halt the machine.
type SyscallHandler interface {
	Syscall(c *CPU) error
}

// Config assembles a CPU.
type Config struct {
	// Bus is the memory port (required).
	Bus Bus
	// Policy selects the detection policy; defaults to pointer taintedness.
	Policy taint.Policy
	// Prop configures Table 1 propagation rule ablations.
	Prop taint.Propagator
	// Handler receives SYSCALL traps; nil makes SYSCALL a fault.
	Handler SyscallHandler
	// Image provides symbols for alert attribution (optional).
	Image *asm.Image
}

// regHome records where a register's current value was loaded from. It
// backs the compare-untaint write-through: when a compare instruction
// untaints a register whose value still mirrors a memory location, the
// location is untainted too. The paper's binaries keep validated values in
// registers across uses (register allocation); our generated code reloads
// them from memory, so without write-through a validated value would
// re-acquire taint on reload and break the paper's zero-false-positive
// behaviour. Any store overlapping the home, or any other write to the
// register, invalidates the link.
// Liveness lives in CPU.homesMask (bit r), not here, so breaking a link is
// a single mask update.
type regHome struct {
	addr  uint32
	width uint8
}

// CPU is one hardware thread of the simulated machine.
type CPU struct {
	regs     [isa.NumRegisters]uint32
	regTaint [isa.NumRegisters]taint.Vec
	regHomes [isa.NumRegisters]regHome
	// homesMask has bit r set iff regHomes[r].ok, so the per-store home
	// invalidation scan can skip dead entries (usually all of them).
	homesMask uint32
	pc        uint32

	bus     Bus
	policy  taint.Policy
	prop    taint.Propagator
	handler SyscallHandler
	image   *asm.Image

	// flatMem is the bus downcast to flat memory when no cache hierarchy
	// is interposed; the fast path uses it for side-effect-free taint
	// peeks (homeClean) that have no meaning through a timing-modelled
	// cache port.
	flatMem *mem.Memory

	pipe  Pipeline
	stats Stats

	probes  map[uint32][]func(*CPU)
	watches []TaintWatch
	profile []uint64 // per-opcode retire counts when profiling is enabled

	tracer     io.Writer
	traceLimit uint64
	traced     uint64

	// prov is the taint-provenance state (prov.go); nil when disabled.
	// Every hook gates on this one pointer, and labels are written only
	// where taint is — the disabled machine and the fast path's clean
	// short-circuits never touch them.
	prov *provState

	// events is the structured trace sink (events.go); nil when disabled.
	events *EventSink

	// cov is the branch-edge coverage hit map (cover.go); nil when
	// disabled, which is the default and the only state the bench guard
	// holds to the fast-path baseline. Not inherited across Fork.
	cov *CovMap

	penalties PenaltySource // non-nil when the bus models miss latency

	// Predecoded text segment [textBase, textEnd): text is the block
	// table (fork.go), slot i holding the instruction at textBase + 4i and
	// the basic block entered there, shared by every member of a snapshot
	// family. seen has bit i set once this machine has dispatched the
	// block entered at word i; a first dispatch counts as a BlockMiss.
	// Stores into text evict overlapped entries, so self-modifying code
	// stays correct.
	textBase uint32
	textEnd  uint32
	text     *blockTable
	seen     []uint64

	// Superblock tier (superblock.go): sblocks[o] is the compiled trace
	// this machine enters at the block of ordinal o (sbUnfusable marks
	// failed builds and retired traces), sbHeat counts block-path
	// dispatches toward sbHotThreshold, sbBad counts the entries that
	// retired nothing or failed the guard, and sbOff disables the tier.
	// The traces are immutable and, on a shared table, published in it for
	// the whole family; the three slices are this machine's own, and a
	// fork starts them empty. sbShared holds while every trace in sblocks
	// came from the current table while it was shared: none of them can
	// then go stale, so dispatch skips the liveness walk.
	sblocks  []*superblock
	sbHeat   []uint16
	sbBad    []uint8
	sbOff    bool
	sbShared bool
	// sbInval remembers why compiled state was last invalidated so a
	// later !live() discovery at dispatch can attribute the deopt to a
	// reason (stats.go). Zero value = self-modify, the only cause that
	// can fire without going through a tagged entry point.
	sbInval uint8

	// injectFn, when non-nil, is a one-shot fault-injection callback armed
	// by InjectAt (guard.go) to fire at the first instruction boundary
	// where stats.Instructions >= injectAt. Run and RunFast honor it at
	// the same retired count; forks copy the armed state by value.
	injectAt uint64
	injectFn func(*CPU)

	halted   bool
	exitCode int32
}

// New builds a CPU from cfg.
func New(cfg Config) *CPU {
	if cfg.Policy == 0 {
		cfg.Policy = taint.PolicyPointerTaintedness
	}
	c := &CPU{
		bus:     cfg.Bus,
		policy:  cfg.Policy,
		prop:    cfg.Prop,
		handler: cfg.Handler,
		image:   cfg.Image,
	}
	if ps, ok := cfg.Bus.(PenaltySource); ok {
		c.penalties = ps
	}
	if fm, ok := cfg.Bus.(*mem.Memory); ok {
		c.flatMem = fm
	}
	return c
}

// Reg returns the value of register r.
func (c *CPU) Reg(r isa.Register) uint32 { return c.regs[r] }

// RegTaint returns the taint vector of register r.
func (c *CPU) RegTaint(r isa.Register) taint.Vec { return c.regTaint[r] }

// SetReg writes value and taint to register r; writes to $zero are ignored.
func (c *CPU) SetReg(r isa.Register, v uint32, t taint.Vec) {
	if r == isa.RegZero {
		return
	}
	c.regs[r] = v
	c.regTaint[r] = t
	c.homesMask &^= 1 << r
}

// setHome links register r to the memory range its value was loaded from.
func (c *CPU) setHome(r isa.Register, addr uint32, width int) {
	if r == isa.RegZero {
		return
	}
	c.regHomes[r] = regHome{addr: addr, width: uint8(width)}
	c.homesMask |= 1 << r
}

// invalidateText drops predecode entries overlapped by a store (support
// for self-modifying code; never hit by the corpus). A machine sharing its
// block table leaves the family first. The per-byte walk handles stores
// that only partially overlap the text segment or a word; every word a
// single byte lands in loses its decoded instruction and — via
// evictBlocksAt — every predecoded block spanning that word.
func (c *CPU) invalidateText(addr uint32, width int) {
	// One range compare rejects the overwhelmingly common data store; the
	// wrap-around of addr+width only ever skips stores that could not
	// reach the text segment anyway.
	if c.text == nil || addr >= c.textEnd || addr+uint32(width) <= c.textBase {
		return
	}
	c.sbInval = sbInvalSelfModify
	c.ownText()
	lastIdx := ^uint32(0)
	for i := 0; i < width; i++ {
		idx := (addr + uint32(i) - c.textBase) >> 2
		if idx < uint32(len(c.text.slots)) && idx != lastIdx {
			c.text.slots[idx].ins.Store(nil)
			c.evictBlocksAt(idx)
			lastIdx = idx
		}
	}
}

// HostWrote tells the machine that host code — the kernel's copy-out —
// stored n bytes at addr through its bus. It has a guest store's side
// effects: predecoded text the write overlaps is dropped, so a guest
// reading input over its own code neither keeps running stale blocks nor
// publishes blocks decoded from text its snapshot siblings do not hold;
// and every register whose memory home the write overlaps loses it, so a
// later compare on the stale register cannot write its untaint through
// to the new bytes.
func (c *CPU) HostWrote(addr uint32, n int) {
	if n > 0 {
		c.invalidateText(addr, n)
		c.invalidateHomes(addr, n)
	}
}

// invalidateHomes breaks register-to-memory links overlapping a store.
func (c *CPU) invalidateHomes(addr uint32, width int) {
	for m := c.homesMask; m != 0; m &= m - 1 {
		h := &c.regHomes[bits.TrailingZeros32(m)]
		if addr < h.addr+uint32(h.width) && h.addr < addr+uint32(width) {
			c.homesMask &^= m & -m
		}
	}
}

// untaintWithHome clears a register's taint after validation (the Table 1
// compare rule) and writes the untaint through to the value's memory home.
func (c *CPU) untaintWithHome(r isa.Register) {
	if r == isa.RegZero {
		return
	}
	c.regTaint[r] = taint.None
	if c.homesMask&(1<<r) == 0 {
		return
	}
	h := c.regHomes[r]
	if c.flatMem != nil {
		// On flat memory a write-through of an already-clean byte is a
		// pure no-op (same data, same taint, no timing port), so only the
		// still-tainted bytes need the store.
		for i := uint32(0); i < uint32(h.width); i++ {
			b, t := c.flatMem.LoadByte(h.addr + i)
			if t {
				c.flatMem.StoreByte(h.addr+i, b, false)
			}
		}
		return
	}
	for i := uint32(0); i < uint32(h.width); i++ {
		b, _ := c.bus.LoadByte(h.addr + i)
		c.bus.StoreByte(h.addr+i, b, false)
	}
}

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.pc }

// SetPC sets the program counter.
func (c *CPU) SetPC(pc uint32) { c.pc = pc }

// PenaltySource is implemented by memory ports that accumulate miss
// latency (the cache hierarchy); the CPU drains it into the pipeline's
// cycle count after each data access.
type PenaltySource interface {
	DrainPenalty() uint64
}

// Bus returns the CPU's memory port, for the kernel's copy-in/copy-out.
func (c *CPU) Bus() Bus { return c.bus }

// Policy returns the active detection policy.
func (c *CPU) Policy() taint.Policy { return c.policy }

// Stats returns a copy of the execution statistics.
func (c *CPU) Stats() Stats { return c.stats }

// AddProbe registers fn to run whenever execution reaches pc (before the
// instruction executes). Probes are a host-side debugging/calibration
// facility — the attack drivers use them the way a real attacker uses a
// debugger on a local copy of the target binary.
func (c *CPU) AddProbe(pc uint32, fn func(*CPU)) {
	if c.probes == nil {
		c.probes = make(map[uint32][]func(*CPU))
	}
	c.probes[pc] = append(c.probes[pc], fn)
	c.sbInval = sbInvalProbe
	// A probed pc must be a block entry so StepBlock runs its probes;
	// rebuilt blocks will stop short of it.
	c.flushBlocks()
}

// Halt stops the machine with the given exit status; the current Run call
// returns after the instruction completes.
func (c *CPU) Halt(code int32) {
	c.halted = true
	c.exitCode = code
}

// Halted reports whether the machine has exited, and the status.
func (c *CPU) Halted() (bool, int32) { return c.halted, c.exitCode }

// symbolFor attributes addr to a function for alert messages.
func (c *CPU) symbolFor(addr uint32) (string, uint32) {
	if c.image == nil {
		return "", 0
	}
	return c.image.SymbolAt(addr)
}

func (c *CPU) alert(kind taint.AlertKind, stage Stage, in isa.Instruction, reg isa.Register) error {
	sym, off := c.symbolFor(c.pc)
	c.stats.Alerts++
	a := &SecurityAlert{
		Kind:   kind,
		PC:     c.pc,
		Instr:  in,
		Reg:    reg,
		Value:  c.regs[reg],
		Taint:  c.regTaint[reg],
		Stage:  stage,
		Symbol: sym,
		SymOff: off,
		Instrs: c.stats.Instructions,
		Cycle:  c.pipe.Cycle(),
	}
	if c.prov != nil {
		a.Provenance = c.provChain(reg)
	}
	if c.events != nil {
		c.events.Emit(Event{
			Kind:   EvAlert,
			Instrs: a.Instrs,
			PC:     a.PC,
			Reg:    reg,
			Value:  a.Value,
			Taint:  a.Taint,
			Label:  c.RegProvLabel(reg),
			Detail: string(stage) + " " + kind.String(),
		})
	}
	return a
}

func (c *CPU) fault(reason string) error {
	return &Fault{PC: c.pc, Reason: reason}
}

// Step executes one instruction. It returns a *SecurityAlert when a
// detector fires, a *Fault on machine errors, or nil.
func (c *CPU) Step() error {
	if c.probes != nil {
		for _, fn := range c.probes[c.pc] {
			fn(c)
		}
	}
	return c.stepOne()
}

// stepOne is Step without the probe dispatch: the reference fetch → decode
// → execute → retire path, also used by StepBlock as its fallback once the
// entry probes have run.
func (c *CPU) stepOne() error {
	var in isa.Instruction
	var slot *textSlot
	var p *isa.Instruction
	if idx := (c.pc - c.textBase) >> 2; idx < uint32(c.text.words()) {
		slot = &c.text.slots[idx]
		p = slot.ins.Load()
	}
	if p != nil {
		in = *p
	} else {
		word, _, err := c.bus.LoadWord(c.pc)
		if err != nil {
			return c.fault("instruction fetch: " + err.Error())
		}
		if word == 0 {
			// Zeroed memory is not code: a wild jump lands here and
			// crashes, as on a real machine with unmapped pages.
			return c.fault("illegal instruction: null word")
		}
		in, err = isa.Decode(word)
		if err != nil {
			return c.fault("illegal instruction: " + err.Error())
		}
		if slot != nil {
			p = new(isa.Instruction)
			*p = in
			slot.ins.Store(p)
		}
	}
	if c.tracer != nil {
		c.trace(in)
	}
	nextPC := c.pc + 4

	switch in.Op.Kind() {
	case isa.KindALU, isa.KindCompare:
		c.execALU(in, c.pc, c.stats.Instructions)
	case isa.KindShift:
		c.execShift(in, c.pc, c.stats.Instructions)
	case isa.KindLoad, isa.KindStore:
		if err := c.execMem(in); err != nil {
			return err
		}
		if c.penalties != nil {
			c.pipe.MemoryPenalty(c.penalties.DrainPenalty())
		}
	case isa.KindBranch:
		taken := c.execBranch(in)
		if taken {
			nextPC = isa.BranchTarget(c.pc, in)
		}
		if c.cov != nil {
			c.cov.hit(c.pc, nextPC)
		}
		c.pipe.Branch(taken)
	case isa.KindJump:
		if in.Op == isa.OpJAL {
			c.SetReg(isa.RegRA, c.pc+4, taint.None)
		}
		nextPC = isa.JumpTarget(c.pc, in)
		if c.cov != nil {
			c.cov.hit(c.pc, nextPC)
		}
		c.pipe.Jump()
	case isa.KindJumpReg:
		// Detector after ID/EX: the jump target register value is
		// available; a tainted target marks the instruction malicious and
		// the exception is raised at retirement (Section 4.3).
		if tv := c.regTaint[in.Rs]; tv != taint.None && c.events != nil {
			c.events.Emit(Event{
				Kind:   EvDerefCheck,
				Instrs: c.stats.Instructions,
				PC:     c.pc,
				Reg:    in.Rs,
				Value:  c.regs[in.Rs],
				Taint:  tv,
				Label:  c.RegProvLabel(in.Rs),
			})
		}
		if kind, bad := c.policy.CheckJumpReg(c.regTaint[in.Rs]); bad {
			c.pipe.Retire(in)
			c.stats.Instructions++
			c.stats.TaintedSteps++
			if c.profile != nil {
				c.profile[in.Op]++
			}
			return c.alert(kind, StageIDEX, in, in.Rs)
		}
		target := c.regs[in.Rs]
		if in.Op == isa.OpJALR {
			c.SetReg(in.Rd, c.pc+4, taint.None)
		}
		nextPC = target
		if c.cov != nil {
			c.cov.hit(c.pc, nextPC)
		}
		c.pipe.Jump()
	case isa.KindSystem:
		switch in.Op {
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
			// nothing
		}
	}

	c.pipe.Retire(in)
	c.stats.Instructions++
	c.stats.TaintedSteps++ // the reference path always runs the full datapath
	if c.profile != nil {
		c.profile[in.Op]++
	}
	c.pc = nextPC
	if c.pc&3 != 0 {
		return c.fault("misaligned pc")
	}
	if c.pc < nullPage {
		return c.fault("segmentation fault: jump into the null page")
	}
	return nil
}

// operand builds the taint.Operand view of a source register.
func (c *CPU) operand(r isa.Register) taint.Operand {
	return taint.Operand{Value: c.regs[r], Taint: c.regTaint[r], Reg: r}
}

func immOperand(v uint32) taint.Operand {
	return taint.Operand{Value: v, Reg: taint.NoRegister, IsImm: true}
}

// execALU covers three-register ALU ops, immediates, LUI, and compares.
// pc and instrs are the instruction's address and the retired count
// before it, for the provenance hook.
func (c *CPU) execALU(in isa.Instruction, pc uint32, instrs uint64) {
	var a, b taint.Operand
	var dst isa.Register
	switch in.Op {
	case isa.OpLUI:
		a, b = immOperand(in.UImm()), immOperand(0)
		dst = in.Rt
	case isa.OpADDI, isa.OpADDIU, isa.OpSLTI:
		a, b = c.operand(in.Rs), immOperand(uint32(in.Imm))
		dst = in.Rt
	case isa.OpSLTIU, isa.OpANDI, isa.OpORI, isa.OpXORI:
		a, b = c.operand(in.Rs), immOperand(in.UImm())
		dst = in.Rt
	default:
		a, b = c.operand(in.Rs), c.operand(in.Rt)
		dst = in.Rd
	}
	val := aluValue(in, a.Value, b.Value)
	res := c.prop.Propagate(in.Op, a, b)
	if res.UntaintA && a.Reg != taint.NoRegister {
		c.untaintWithHome(a.Reg)
	}
	if res.UntaintB && b.Reg != taint.NoRegister {
		c.untaintWithHome(b.Reg)
	}
	c.SetReg(dst, val, res.Out)
	if c.prov != nil {
		c.provProp(dst, res.Out, a, b, pc, instrs)
	}
}

// aluValue computes the data result of an ALU/compare instruction.
func aluValue(in isa.Instruction, a, b uint32) uint32 {
	switch in.Op {
	case isa.OpADD, isa.OpADDU, isa.OpADDI, isa.OpADDIU:
		return a + b
	case isa.OpSUB, isa.OpSUBU:
		return a - b
	case isa.OpAND, isa.OpANDI:
		return a & b
	case isa.OpOR, isa.OpORI:
		return a | b
	case isa.OpXOR, isa.OpXORI:
		return a ^ b
	case isa.OpNOR:
		return ^(a | b)
	case isa.OpMUL:
		return uint32(int32(a) * int32(b))
	case isa.OpDIV:
		if b == 0 {
			return 0
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return 0x80000000
		}
		return uint32(int32(a) / int32(b))
	case isa.OpDIVU:
		if b == 0 {
			return 0
		}
		return a / b
	case isa.OpREM:
		if b == 0 {
			return 0
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return 0
		}
		return uint32(int32(a) % int32(b))
	case isa.OpREMU:
		if b == 0 {
			return 0
		}
		return a % b
	case isa.OpSLT, isa.OpSLTI:
		if int32(a) < int32(b) {
			return 1
		}
		return 0
	case isa.OpSLTU, isa.OpSLTIU:
		if a < b {
			return 1
		}
		return 0
	case isa.OpLUI:
		return a << 16
	}
	return 0
}

// execShift covers immediate and variable shifts; pc and instrs are as
// for execALU.
func (c *CPU) execShift(in isa.Instruction, pc uint32, instrs uint64) {
	datum := c.operand(in.Rt)
	var amount taint.Operand
	if in.Op == isa.OpSLL || in.Op == isa.OpSRL || in.Op == isa.OpSRA {
		amount = immOperand(uint32(in.Shamt))
	} else {
		amount = c.operand(in.Rs)
	}
	sh := amount.Value & 31
	var val uint32
	switch in.Op {
	case isa.OpSLL, isa.OpSLLV:
		val = datum.Value << sh
	case isa.OpSRL, isa.OpSRLV:
		val = datum.Value >> sh
	case isa.OpSRA, isa.OpSRAV:
		val = uint32(int32(datum.Value) >> sh)
	}
	res := c.prop.Propagate(in.Op, datum, amount)
	c.SetReg(in.Rd, val, res.Out)
	if c.prov != nil {
		c.provProp(in.Rd, res.Out, datum, amount, pc, instrs)
	}
}

// execMem covers loads and stores, including the EX/MEM taintedness
// detector for pointer dereferences.
func (c *CPU) execMem(in isa.Instruction) error {
	addrVec := c.regTaint[in.Rs] // imm offset is untainted; address taint is the base's
	if addrVec != taint.None && c.events != nil {
		// The EX/MEM detector is consulting a tainted address; both
		// engines reach this path with stats flushed (the fast path's
		// clean-address short-circuit requires taint.None).
		c.events.Emit(Event{
			Kind:   EvDerefCheck,
			Instrs: c.stats.Instructions,
			PC:     c.pc,
			Reg:    in.Rs,
			Value:  c.regs[in.Rs],
			Taint:  addrVec,
			Label:  c.RegProvLabel(in.Rs),
		})
	}
	if kind, bad := c.policy.CheckMemAccess(in.Op, addrVec); bad {
		c.pipe.Retire(in)
		c.stats.Instructions++
		c.stats.TaintedSteps++
		return c.alert(kind, StageEXMEM, in, in.Rs)
	}
	addr := c.regs[in.Rs] + uint32(in.Imm)
	if addr < nullPage {
		return c.fault("segmentation fault: null-page access")
	}
	switch in.Op {
	case isa.OpLB, isa.OpLBU:
		b, tt := c.bus.LoadByte(addr)
		var v uint32
		var vec taint.Vec
		if in.Op == isa.OpLB {
			v = uint32(int32(int8(b)))
			if tt {
				// Sign-extension replicates the loaded byte; the
				// replicated bytes derive from tainted data.
				vec = taint.Word
			}
		} else {
			v = uint32(b)
			if tt {
				vec = taint.ForWidth(1)
			}
		}
		c.SetReg(in.Rt, v, vec)
		if vec != taint.None && c.prov != nil {
			c.provLoad(in.Rt, addr, c.pc, c.stats.Instructions)
		}
		c.setHome(in.Rt, addr, 1)
		c.pipe.Load(in.Rt)
		c.stats.Loads++
	case isa.OpLH, isa.OpLHU:
		h, hv, err := c.bus.LoadHalf(addr)
		if err != nil {
			return c.fault(err.Error())
		}
		var v uint32
		vec := hv
		if in.Op == isa.OpLH {
			v = uint32(int32(int16(h)))
			if hv.Byte(1) {
				vec = taint.Word // sign bytes derive from the top loaded byte
			}
		} else {
			v = uint32(h)
		}
		c.SetReg(in.Rt, v, vec)
		if vec != taint.None && c.prov != nil {
			c.provLoad(in.Rt, addr, c.pc, c.stats.Instructions)
		}
		c.setHome(in.Rt, addr, 2)
		c.pipe.Load(in.Rt)
		c.stats.Loads++
	case isa.OpLW:
		w, wv, err := c.bus.LoadWord(addr)
		if err != nil {
			return c.fault(err.Error())
		}
		c.SetReg(in.Rt, w, wv)
		if wv != taint.None && c.prov != nil {
			c.provLoad(in.Rt, addr, c.pc, c.stats.Instructions)
		}
		c.setHome(in.Rt, addr, 4)
		c.pipe.Load(in.Rt)
		c.stats.Loads++
	case isa.OpSB:
		if err := c.watchedStoreTaint(in.Op, addr, c.regTaint[in.Rt]); err != nil {
			return err
		}
		c.bus.StoreByte(addr, byte(c.regs[in.Rt]), c.regTaint[in.Rt].Byte(0))
		if c.prov != nil && c.regTaint[in.Rt].Byte(0) {
			c.provStore(addr, 1, in.Rt)
		}
		c.invalidateHomes(addr, 1)
		c.invalidateText(addr, 1)
		c.pipe.Store()
		c.stats.Stores++
	case isa.OpSH:
		if err := c.watchedStoreTaint(in.Op, addr, c.regTaint[in.Rt]); err != nil {
			return err
		}
		if err := c.bus.StoreHalf(addr, uint16(c.regs[in.Rt]), c.regTaint[in.Rt]); err != nil {
			return c.fault(err.Error())
		}
		if c.prov != nil && c.regTaint[in.Rt] != taint.None {
			c.provStore(addr, 2, in.Rt)
		}
		c.invalidateHomes(addr, 2)
		c.invalidateText(addr, 2)
		c.pipe.Store()
		c.stats.Stores++
	case isa.OpSW:
		if err := c.watchedStoreTaint(in.Op, addr, c.regTaint[in.Rt]); err != nil {
			return err
		}
		if err := c.bus.StoreWord(addr, c.regs[in.Rt], c.regTaint[in.Rt]); err != nil {
			return c.fault(err.Error())
		}
		if c.prov != nil && c.regTaint[in.Rt] != taint.None {
			c.provStore(addr, 4, in.Rt)
		}
		c.invalidateHomes(addr, 4)
		c.invalidateText(addr, 4)
		c.pipe.Store()
		c.stats.Stores++
	}
	return nil
}

// branchTaken evaluates a branch condition on its register values.
func branchTaken(op isa.Opcode, a, b uint32) bool {
	switch op {
	case isa.OpBEQ:
		return a == b
	case isa.OpBNE:
		return a != b
	case isa.OpBLEZ:
		return int32(a) <= 0
	case isa.OpBGTZ:
		return int32(a) > 0
	case isa.OpBLTZ:
		return int32(a) < 0
	case isa.OpBGEZ:
		return int32(a) >= 0
	}
	return false
}

// execBranch evaluates the branch condition and applies the compare-untaint
// rule to the tested registers.
func (c *CPU) execBranch(in isa.Instruction) bool {
	taken := branchTaken(in.Op, c.regs[in.Rs], c.regs[in.Rt])
	if c.prop.BranchUntaint() {
		c.untaintWithHome(in.Rs)
		if in.Op == isa.OpBEQ || in.Op == isa.OpBNE {
			c.untaintWithHome(in.Rt)
		}
	}
	c.stats.Branches++
	return taken
}

// Run executes until the machine halts, a detector fires, a fault occurs,
// or maxInstructions retire (0 means no budget — not recommended). It
// returns nil on a clean exit with status 0, *ExitError on a nonzero exit,
// *StepBudgetError when the watchdog budget trips, and the alert or fault
// otherwise. Host panics raised mid-step are recovered into *GuestFault /
// *mem.LimitError, never propagated.
func (c *CPU) Run(maxInstructions uint64) (err error) {
	defer c.recoverGuestFault(&err)
	for !c.halted {
		if maxInstructions > 0 && c.stats.Instructions >= maxInstructions {
			return &StepBudgetError{PC: c.pc, Steps: c.stats.Instructions}
		}
		if c.injectionDue() {
			c.fireInjection()
			continue
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	if c.exitCode != 0 {
		return &ExitError{Code: c.exitCode}
	}
	return nil
}
