package cache

import "repro/internal/mem"

func alignErr(addr uint32, width int) error {
	return &mem.AlignmentError{Addr: addr, Width: width}
}

// Hierarchy is the default two-level structure: a small fast L1 over a
// larger L2 over physical memory. It implements Port and can therefore be
// used as the CPU's Bus directly.
type Hierarchy struct {
	*Cache // L1: accesses enter here
	l2     *Cache
}

// NewHierarchy builds L1->L2->memory with the given geometries.
func NewHierarchy(l1, l2 Config, memory Port) (*Hierarchy, error) {
	second, err := New(l2, memory)
	if err != nil {
		return nil, err
	}
	first, err := New(l1, second)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{Cache: first, l2: second}, nil
}

// NewDefaultHierarchy builds the default geometry over memory: modest
// early-2000s sizes and latencies, matching the SimpleScalar-era machine
// the paper models. An L1 miss pays the L2 access, an L2 miss pays main
// memory.
func NewDefaultHierarchy(memory Port) (*Hierarchy, error) {
	return NewHierarchy(
		Config{Name: "L1", Size: 16 << 10, LineSize: 32, Ways: 4, MissPenalty: 6},
		Config{Name: "L2", Size: 256 << 10, LineSize: 32, Ways: 8, MissPenalty: 40},
		memory)
}

// L1Stats returns the first-level counters.
func (h *Hierarchy) L1Stats() Stats { return h.Cache.Stats() }

// L2Stats returns the second-level counters.
func (h *Hierarchy) L2Stats() Stats { return h.l2.Stats() }

// FlushAll writes every dirty line in both levels back to memory.
func (h *Hierarchy) FlushAll() {
	h.Cache.Flush()
	h.l2.Flush()
}

// DrainPenalty returns and clears the hierarchy's accumulated miss-penalty
// cycles; the CPU folds them into the pipeline's cycle count.
func (h *Hierarchy) DrainPenalty() uint64 {
	return h.Cache.DrainPenalty() + h.l2.DrainPenalty()
}
