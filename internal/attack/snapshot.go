package attack

import (
	"errors"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// Snapshot is an immutable capture of a booted machine: registers, taint
// vectors, memory pages (shared copy-on-write), kernel and network state,
// and the predecoded text. Forking a Snapshot yields an independent
// Machine in that exact state for a fraction of a boot's cost — the unit
// of work the campaign engine replays. A Snapshot never executes, so its
// pages stay frozen and Fork may be called from many goroutines at once.
type Snapshot struct {
	image     *asm.Image
	cpu       *cpu.CPU
	mem       *mem.Memory
	kern      *kernel.Kernel
	budget    uint64
	reference bool
}

// Snapshot captures the machine's current state. The machine must be at a
// host-visible boundary (booted, blocked, or halted), not mid-Run. The
// origin machine remains usable: its pages are frozen, so its next writes
// fault into private copies, leaving the snapshot untouched.
//
// Machines with a cache hierarchy cannot be snapshotted: dirty taint-
// carrying cache lines are not copy-on-write, so forks would alias them.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.Caches != nil {
		return nil, errors.New("snapshot: cache-hierarchy machines are not snapshottable")
	}
	m.CPU.NoteSnapshot()
	m.CPU.ShareText()
	smem := m.Mem.Fork()
	skern := m.Kernel.Clone()
	scpu := m.CPU.Fork(smem, skern)
	return &Snapshot{
		image:     m.Image,
		cpu:       scpu,
		mem:       smem,
		kern:      skern,
		budget:    m.budget,
		reference: m.reference,
	}, nil
}

// Stats returns the CPU counters at the snapshot point; campaign
// accounting subtracts them to charge each session only its own work.
func (s *Snapshot) Stats() cpu.Stats { return s.cpu.Stats() }

// Fork stamps out an independent Machine in the snapshot's state: memory
// is shared copy-on-write, the kernel (filesystem, network, fd table) is
// deep-copied, CPU registers, taint and statistics are cloned, and the
// predecoded text is shared: every fork of the snapshot reuses the blocks
// any of them has built. Fork only reads the snapshot, so it is safe to call
// concurrently from campaign workers. Host-side network Endpoints from
// before the snapshot still address the original machine; a forked
// session opens its own connections via Connect.
func (s *Snapshot) Fork() *Machine {
	fmem := s.mem.Fork()
	fkern := s.kern.Clone()
	fcpu := s.cpu.Fork(fmem, fkern)
	return &Machine{
		Image:     s.image,
		Kernel:    fkern,
		CPU:       fcpu,
		Mem:       fmem,
		budget:    s.budget,
		reference: s.reference,
	}
}
