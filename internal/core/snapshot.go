package core

import (
	"errors"

	"repro/internal/cpu"
)

// Snapshot is an immutable capture of a booted machine: registers, taint
// vectors, memory pages (shared copy-on-write), kernel and network state,
// and the predecoded text. Forking a Snapshot yields an independent
// Machine in that exact state for a fraction of a boot's cost — the unit
// of work the campaign engine replays. A Snapshot never executes, so its
// pages stay frozen and Fork may be called from many goroutines at once.
type Snapshot struct {
	m *Machine // never runs; its pages stay frozen
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
	s := m.fork()
	// The fork's label table layers on m's, which m goes on writing;
	// flatten it so the snapshot's forks layer on a table nothing writes.
	s.CPU.FlattenProv()
	return &Snapshot{s}, nil
}

// Stats returns the CPU counters at the snapshot point; campaign
// accounting subtracts them to charge each session only its own work.
func (s *Snapshot) Stats() cpu.Stats { return s.m.CPU.Stats() }

// Fork stamps out an independent Machine in the snapshot's state: memory
// is shared copy-on-write, the kernel (filesystem, network, fd table) is
// deep-copied, CPU registers, taint and statistics are cloned, and the
// predecoded text is shared: every fork of the snapshot reuses the blocks
// any of them has built. Fork only reads the snapshot, so it is safe to call
// concurrently from campaign workers. The fork carries the host side of
// every connection the snapshot's guest still holds: its Peers address
// the fork's copies, so a session can continue a dialogue the snapshot
// was taken in the middle of, or open new connections via Connect.
// Endpoints obtained before the snapshot still address the original
// machine.
func (s *Snapshot) Fork() *Machine { return s.m.fork() }

// fork clones m's flat-memory state into a new Machine: pages shared
// copy-on-write, kernel deep-copied, CPU cloned onto the two.
func (m *Machine) fork() *Machine {
	fmem := m.Mem.Fork()
	fkern := m.Kernel.Clone()
	return &Machine{
		Image: m.Image, Kernel: fkern, CPU: m.CPU.Fork(fmem, fkern), Mem: fmem,
		budget: m.budget, reference: m.reference,
	}
}
