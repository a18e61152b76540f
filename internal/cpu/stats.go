package cpu

import (
	"sort"

	"repro/internal/isa"
)

// OpcodeCount is one row of an instruction-mix profile.
type OpcodeCount struct {
	Op    isa.Opcode
	Count uint64
}

// EnableProfile turns on per-opcode retire counting (sim-profile style).
func (c *CPU) EnableProfile() {
	if c.profile == nil {
		c.profile = make([]uint64, isa.NumOpcodes+1)
	}
}

// Profile returns the instruction mix in descending count order; empty
// unless EnableProfile was called before execution.
func (c *CPU) Profile() []OpcodeCount {
	if c.profile == nil {
		return nil
	}
	out := make([]OpcodeCount, 0, len(c.profile))
	for op, n := range c.profile {
		if n > 0 {
			out = append(out, OpcodeCount{Op: isa.Opcode(op), Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// Stats aggregates execution counters for the evaluation harnesses
// (Table 3's instruction counts, Section 5.4's overhead estimates).
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Syscalls     uint64
	Alerts       uint64

	// Fast-path counters (fastpath.go). BlockHits and BlockMisses count
	// basic-block dispatches served from, respectively built into, the
	// predecode block cache. CleanSkips counts instructions retired
	// through the clean-operand short-circuit; TaintedSteps counts
	// instructions that ran the full taint datapath (the reference
	// interpreter counts every instruction here). On every execution path
	// CleanSkips + TaintedSteps == Instructions.
	BlockHits    uint64
	BlockMisses  uint64
	CleanSkips   uint64
	TaintedSteps uint64

	// Superblock-tier counters (superblock.go). SuperblockRuns counts
	// entries into a compiled trace, SuperblockInstrs the instructions
	// retired inside one (a subset of Instructions), SuperblockDeopts
	// every exit before an op the block path must execute instead (a
	// checked dereference, a host-visible hook, a store range guard, an
	// address fault) and every compiled trace found dead at dispatch after
	// an invalidation — as opposed to ordinary side exits on the
	// unexpected branch direction or the budget boundary.
	SuperblockRuns   uint64
	SuperblockInstrs uint64
	SuperblockDeopts uint64

	// Per-reason deopt breakdown. Always sums to SuperblockDeopts:
	//   TaintedAddr — a load or store address register is tainted: the
	//                 checked dereference, where the block path consults
	//                 the detector;
	//   Hook        — a tainted store value while taint watches are
	//                 registered;
	//   SelfModify  — a store's range guard found its address inside
	//                 text, or a text invalidation dropped the trace;
	//   MemFault    — misaligned/null load or store address caught by
	//                 the trace's address guard before the access.
	SbDeoptTaintedAddr uint64
	SbDeoptHook        uint64
	SbDeoptSelfModify  uint64
	SbDeoptMemFault    uint64
}

// DeoptReason is one row of the superblock deopt breakdown.
type DeoptReason struct {
	Reason string
	Count  uint64
}

// DeoptReasons returns the per-reason superblock deopt breakdown in a
// fixed order. The counts always sum to SuperblockDeopts (asserted by
// the differential tests); zero rows are included so consumers see a
// stable shape.
func (s Stats) DeoptReasons() []DeoptReason {
	return []DeoptReason{
		{"tainted-address", s.SbDeoptTaintedAddr},
		{"hook", s.SbDeoptHook},
		{"self-modify", s.SbDeoptSelfModify},
		{"mem-fault", s.SbDeoptMemFault},
	}
}

// CleanSkipRate returns the fraction of retired instructions that took the
// clean-operand short-circuit (0 before any instruction retires).
func (s Stats) CleanSkipRate() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.CleanSkips) / float64(s.Instructions)
}

// PipelineStats exposes the timing model's counters.
type PipelineStats struct {
	Cycles       uint64
	Stalls       uint64
	Flushes      uint64
	MemPenalties uint64 // cache-miss latency cycles (zero on ideal memory)
}

// Pipe returns the CPU's pipeline counters.
func (c *CPU) Pipe() PipelineStats {
	return PipelineStats{
		Cycles:       c.pipe.Cycle(),
		Stalls:       c.pipe.Stalls(),
		Flushes:      c.pipe.Flushes(),
		MemPenalties: c.pipe.MemPenalties(),
	}
}

// CPI returns cycles per instruction, or 0 before any instruction retires.
func (s PipelineStats) CPI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(instructions)
}
