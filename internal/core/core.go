// Package core is the library's public face: it assembles the
// pointer-taintedness machine — CPU with per-byte taint datapath, cache
// hierarchy, kernel with taint-initializing system calls, simulated
// network — and compiles programs onto it from C-subset or assembly
// source. It is the API a downstream user builds on; the internal
// packages (isa, taint, mem, cache, cpu, asm, cc, rtl, kernel, netsim)
// remain directly usable for finer control.
//
// Quickstart:
//
//	m, err := core.BuildC(core.Config{}, `
//	    int main() { puts("hello"); return 0; }
//	`)
//	if err != nil { ... }
//	err = m.Run()          // nil on a clean exit
//	fmt.Print(m.Stdout())  // "hello\n"
//
// Security monitoring:
//
//	m, _ := core.BuildC(core.Config{Policy: core.PointerTaintedness}, src)
//	m.SetStdin([]byte(attackPayload))
//	var alert *core.SecurityAlert
//	if errors.As(m.Run(), &alert) {
//	    fmt.Println("attack stopped:", alert)
//	}
package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rtl"
	"repro/internal/taint"
)

// Policy re-exports the detection policies.
type Policy = taint.Policy

// Detection policies.
const (
	// Off tracks taint but never raises alerts.
	Off = taint.PolicyOff
	// ControlDataOnly alerts only on tainted control-transfer targets —
	// the Minos / Secure Program Execution baseline.
	ControlDataOnly = taint.PolicyControlDataOnly
	// PointerTaintedness alerts on every dereference of a tainted word —
	// the paper's mechanism and the default.
	PointerTaintedness = taint.PolicyPointerTaintedness
)

// SecurityAlert re-exports the machine's security exception.
type SecurityAlert = cpu.SecurityAlert

// Fault re-exports non-security machine faults.
type Fault = cpu.Fault

// StepBudgetError re-exports the runaway-guest watchdog trip.
type StepBudgetError = cpu.StepBudgetError

// GuestFault re-exports host panics recovered at the machine boundary.
type GuestFault = cpu.GuestFault

// MemLimitError re-exports the guest resident-memory cap trip.
type MemLimitError = mem.LimitError

// ExitError re-exports nonzero-status termination.
type ExitError = cpu.ExitError

// BlockedError re-exports the cooperative I/O wait state.
type BlockedError = kernel.BlockedError

// Rules re-exports the Table 1 propagation-rule configuration (zero value:
// all paper rules active).
type Rules = taint.Propagator

// Config assembles a machine. Every entry point boots through it: the
// library API, the attack drivers (attack.Options is this type), the
// campaign, fault and fuzzing engines, ptserve and ptdbg.
type Config struct {
	// Policy defaults to PointerTaintedness.
	Policy Policy
	// Prop configures Table 1 rule ablations.
	Prop Rules
	// WithCache interposes the L1/L2 hierarchy (taint bits ride the cache
	// lines, Section 4.1). Off by default: flat memory is faster to
	// simulate, and only flat-memory machines can be snapshotted.
	WithCache bool
	// Args are the guest's command-line arguments (argv[1:]; argv[0] is
	// the program name). Argument bytes are tainted, per the paper.
	Args []string
	// Env is the guest's environment ("K=V"); also tainted.
	Env []string
	// Stdin preloads the guest's standard input (tainted on read).
	Stdin []byte
	// Files preloads the guest filesystem, path to contents.
	Files map[string][]byte
	// ProgName is argv[0]; defaults to "a.out".
	ProgName string
	// Budget bounds the instruction count per Run call (default
	// DefaultBudget).
	Budget uint64
	// MemLimit caps resident guest memory in bytes (default
	// DefaultMemLimit; negative disables the cap). A guest growing past
	// it gets a *MemLimitError from Run instead of consuming the host.
	MemLimit int
	// NoLibc omits the bundled runtime library when building C sources
	// (for fully freestanding programs).
	NoLibc bool
	// Reference forces the classic one-instruction Step interpreter
	// instead of the predecoded basic-block fast path (the default). The
	// two are behaviourally identical; the reference path exists for
	// cross-checking and debugging.
	Reference bool
	// Provenance enables taint-provenance tracking: every external input
	// byte (read/recv, argv, env) gets an origin label, Table 1
	// propagation merges labels, and a SecurityAlert carries a chain
	// naming the exact input bytes that made the dereferenced value
	// tainted. Requires flat memory (incompatible with WithCache).
	Provenance bool
	// TraceEvents attaches a structured trace-event ring that keeps the
	// most recent cpu.DefaultEventCap events for export after the run.
	// Events record taint births, pointer-taint propagation, dereference
	// checks, alerts, and syscalls; read them with Events or
	// ExportEventsJSONL.
	TraceEvents bool
	// Events, when non-nil, receives every structured trace event as
	// JSONL while the machine runs. On its own it keeps no ring (the
	// stream is the record); set TraceEvents too to keep one. Subscribers
	// run on the emitting goroutine unsynchronized, so one writer must not
	// be shared by machines that run concurrently.
	Events io.Writer
}

// Machine is a ready-to-run guest. Its parts are exported for callers
// that drive the machine below this package's API: attack sessions,
// fault injection, the debugger.
type Machine struct {
	Image  *asm.Image
	Kernel *kernel.Kernel
	CPU    *cpu.CPU
	Mem    *mem.Memory
	Caches *cache.Hierarchy // nil without Config.WithCache

	budget    uint64
	reference bool
}

// BuildC compiles C-subset sources (linked with the runtime library) and
// boots them.
func BuildC(cfg Config, sources ...string) (*Machine, error) {
	units := make([]cc.Unit, len(sources))
	for i, src := range sources {
		units[i] = cc.Unit{Name: fmt.Sprintf("src%d.c", i), Src: src}
	}
	var im *asm.Image
	var err error
	if cfg.NoLibc {
		var gen asm.Source
		gen, err = cc.CompileProgram(units...)
		if err == nil {
			im, err = asm.Assemble(asm.Source{Name: "crt0.s", Text: rtl.Crt0}, gen)
		}
	} else {
		im, err = rtl.Build(units...)
	}
	if err != nil {
		return nil, err
	}
	return BootImage(cfg, im)
}

// BuildASM assembles raw assembly sources and boots them.
func BuildASM(cfg Config, sources ...string) (*Machine, error) {
	srcs := make([]asm.Source, len(sources))
	for i, s := range sources {
		srcs[i] = asm.Source{Name: fmt.Sprintf("src%d.s", i), Text: s}
	}
	im, err := asm.Assemble(srcs...)
	if err != nil {
		return nil, err
	}
	return BootImage(cfg, im)
}

// BootImage boots a pre-assembled image. It is the one place a machine is
// assembled. Boot-time panics (a malformed image whose load trips the
// memory cap, say) are recovered into errors: booting untrusted images
// must not take the host down.
func BootImage(cfg Config, im *asm.Image) (machine *Machine, err error) {
	name := cfg.ProgName
	if name == "" {
		name = "a.out"
	}
	defer func() {
		if r := recover(); r != nil {
			machine, err = nil, fmt.Errorf("boot %s: %v", name, r)
		}
	}()
	k := kernel.New()
	physical := mem.New()
	switch {
	case cfg.MemLimit > 0:
		physical.SetResidentLimit(cfg.MemLimit)
	case cfg.MemLimit == 0:
		physical.SetResidentLimit(DefaultMemLimit)
	}
	var bus cpu.Bus = physical
	var hier *cache.Hierarchy
	if cfg.WithCache {
		var err error
		hier, err = cache.NewDefaultHierarchy(physical)
		if err != nil {
			return nil, fmt.Errorf("cache hierarchy: %w", err)
		}
		bus = hier
	}
	c := cpu.New(cpu.Config{
		Bus:     bus,
		Policy:  cfg.Policy,
		Prop:    cfg.Prop,
		Handler: k,
		Image:   im,
	})
	c.LoadImage(physical, im)
	k.SetBreak(im.DataEnd)
	// Provenance must be live before SetArgs so the boot-time taint
	// sources (argv/env bytes) get origin labels too.
	if cfg.Provenance {
		if err := c.EnableProvenance(); err != nil {
			return nil, fmt.Errorf("boot %s: %w", name, err)
		}
	}
	if cfg.TraceEvents || cfg.Events != nil {
		capacity := 0
		if cfg.TraceEvents {
			capacity = cpu.DefaultEventCap
		}
		sink := c.EnableEvents(capacity)
		if cfg.Events != nil {
			sink.Stream(cpu.StreamJSONL(cfg.Events))
		}
	}
	k.SetArgs(c, append([]string{name}, cfg.Args...), cfg.Env)
	if cfg.Stdin != nil {
		k.SetStdin(cfg.Stdin)
	}
	for path, data := range cfg.Files {
		k.FS.WriteFile(path, data)
	}
	m := &Machine{
		Image: im, Kernel: k, CPU: c, Mem: physical, Caches: hier,
		reference: cfg.Reference,
	}
	m.SetBudget(cfg.Budget)
	return m, nil
}

// Run executes until the guest exits, blocks on I/O, faults, or an alert
// fires. nil means a clean zero-status exit; *BlockedError means the guest
// awaits input (feed it and Run again); *SecurityAlert is a detection.
func (m *Machine) Run() error {
	if m.reference {
		return m.CPU.Run(m.budget)
	}
	return m.CPU.RunFast(m.budget)
}

// SetBudget overrides the per-Run instruction budget (0 restores
// DefaultBudget). Fault campaigns tighten it per fork, to a calibrated
// multiple of the control session's length, so a wedged injection trips
// the watchdog quickly instead of burning the full default budget.
func (m *Machine) SetBudget(n uint64) {
	if n == 0 {
		n = DefaultBudget
	}
	m.budget = n
}

// Budget returns the current per-Run instruction budget.
func (m *Machine) Budget() uint64 { return m.budget }

// RunToBlock runs and requires the guest to block on I/O (servers).
func (m *Machine) RunToBlock() error {
	err := m.Run()
	var blocked *BlockedError
	if errors.As(err, &blocked) {
		return nil
	}
	if err == nil {
		return errors.New("guest exited instead of blocking")
	}
	return err
}

// Sync flushes dirty cache lines to memory so host-side inspection of Mem
// sees the guest's latest state.
func (m *Machine) Sync() {
	if m.Caches != nil {
		m.Caches.FlushAll()
	}
}

// Symbol resolves a program symbol, failing loudly when missing.
func (m *Machine) Symbol(name string) (uint32, error) {
	a, ok := m.Image.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("symbol %q not in image", name)
	}
	return a, nil
}

// SetStdin preloads the guest's standard input (tainted on read).
func (m *Machine) SetStdin(data []byte) { m.Kernel.SetStdin(data) }

// Stdout returns everything the guest wrote to fd 1.
func (m *Machine) Stdout() string { return m.Kernel.Stdout() }

// Stderr returns everything the guest wrote to fd 2.
func (m *Machine) Stderr() string { return m.Kernel.Stderr() }

// WriteFile seeds the guest filesystem.
func (m *Machine) WriteFile(path string, data []byte) {
	m.Kernel.FS.WriteFile(path, data)
}

// ReadFile reads back a guest file.
func (m *Machine) ReadFile(path string) ([]byte, bool) {
	return m.Kernel.FS.ReadFile(path)
}

// Connect opens a client connection to a listening guest port.
func (m *Machine) Connect(port uint16) (*netsim.Endpoint, error) {
	return m.Kernel.Net.Connect(port)
}

// Peers returns the host ends of the connections opened with Connect that
// the guest has not closed, pending or accepted, in Connect order. A fork
// carries them: on a machine forked from a snapshot taken mid-dialogue,
// Peers continues the dialogue on the fork's own copy of each connection.
func (m *Machine) Peers() []*netsim.Endpoint { return m.Kernel.Net.Peers() }

// Transact sends input, resumes the guest until it blocks again (or
// terminates), and returns the guest's output on the connection. err is
// nil while the guest merely awaits more input.
func (m *Machine) Transact(ep *netsim.Endpoint, input string) (string, error) {
	if input != "" {
		ep.SendString(input)
	}
	err := m.Run()
	var blocked *BlockedError
	if errors.As(err, &blocked) {
		err = nil
	}
	return ep.RecvString(), err
}

// Stats returns execution counters.
func (m *Machine) Stats() cpu.Stats { return m.CPU.Stats() }

// Pipeline returns the timing model's counters.
func (m *Machine) Pipeline() cpu.PipelineStats { return m.CPU.Pipe() }

// CacheStats returns (L1, L2) counters; zero values without WithCache.
func (m *Machine) CacheStats() (cache.Stats, cache.Stats) {
	if m.Caches == nil {
		return cache.Stats{}, cache.Stats{}
	}
	return m.Caches.L1Stats(), m.Caches.L2Stats()
}

// InputStats returns the kernel's taint-initialization counters.
func (m *Machine) InputStats() kernel.InputStats { return m.Kernel.Stats() }

// Symbols exposes the program's symbol table.
func (m *Machine) Symbols() map[string]uint32 { return m.Image.Symbols }

// TaintedAt reports how many of the n bytes at addr are tainted (flushes
// caches first so the view is coherent).
func (m *Machine) TaintedAt(addr uint32, n int) int {
	m.Sync()
	return m.Mem.CountTainted(addr, n)
}

// Exited reports termination status.
func (m *Machine) Exited() (bool, int32) { return m.CPU.Halted() }

// EnableProfile turns on per-opcode instruction-mix counting; call before
// Run.
func (m *Machine) EnableProfile() { m.CPU.EnableProfile() }

// SetCovMap attaches a branch-edge coverage map (nil detaches); call
// before Run. Both engines record identical edges into it.
func (m *Machine) SetCovMap(cm *cpu.CovMap) { m.CPU.SetCovMap(cm) }

// SetTracer streams a disassembly trace of the first limit instructions
// (0 = unlimited) to w.
func (m *Machine) SetTracer(w io.Writer, limit uint64) { m.CPU.SetTracer(w, limit) }

// Profile returns the instruction mix in descending count order.
func (m *Machine) Profile() []cpu.OpcodeCount { return m.CPU.Profile() }

// deoptKeys are the sb.deopts_by_reason metric names, in the order of
// cpu.Stats.DeoptReasons.
var deoptKeys = func() []string {
	var keys []string
	for _, d := range (cpu.Stats{}).DeoptReasons() {
		keys = append(keys, metrics.Labeled("sb.deopts_by_reason", "reason", d.Reason))
	}
	return keys
}()

// Metrics names every machine counter: it reads the CPU, memory, kernel
// and cache accessors into one snapshot for text/JSON exposition, which
// campaign workers capture per session and fold deterministically. The
// hot loops keep raw struct counters (a map write per retired instruction
// would wreck the fast path); this is the one place they get names.
// trace.* appears only with an event sink, prov.* and mem.prov_words
// only with provenance, cache.* only with a hierarchy; every
// sb.deopts_by_reason key appears, even at zero.
func (m *Machine) Metrics() metrics.Snapshot {
	s, p, k := m.CPU.Stats(), m.CPU.Pipe(), m.Kernel.Stats()
	events, pt := m.CPU.Events(), m.CPU.ProvTable()
	c := make(map[string]uint64, 21+len(deoptKeys)+12) // + trace, prov, cache
	c["cpu.instructions"] = s.Instructions
	c["cpu.loads"] = s.Loads
	c["cpu.stores"] = s.Stores
	c["cpu.branches"] = s.Branches
	c["cpu.syscalls"] = s.Syscalls
	c["cpu.alerts"] = s.Alerts
	c["cpu.block_hits"] = s.BlockHits
	c["cpu.block_misses"] = s.BlockMisses
	c["cpu.clean_skips"] = s.CleanSkips
	c["cpu.tainted_steps"] = s.TaintedSteps
	c["sb.runs"] = s.SuperblockRuns
	c["sb.instructions"] = s.SuperblockInstrs
	c["sb.deopts"] = s.SuperblockDeopts
	for i, d := range s.DeoptReasons() {
		c[deoptKeys[i]] = d.Count
	}
	c["pipe.cycles"] = p.Cycles
	c["pipe.stalls"] = p.Stalls
	c["pipe.flushes"] = p.Flushes
	c["pipe.mem_penalty_cycles"] = p.MemPenalties
	c["mem.tainted_store_bytes"] = m.Mem.TaintedBytesWritten()
	c["mem.cow_faults"] = m.Mem.COWFaults()
	c["kernel.bytes_read"] = k.BytesRead
	c["kernel.tainted_bytes"] = k.TaintedBytes
	if events != nil {
		c["trace.events"] = events.Total()
		c["trace.events_dropped"] = events.Dropped()
	}
	if pt != nil {
		c["prov.origins"] = uint64(pt.NumOrigins())
		c["prov.labels"] = uint64(pt.NumLabels())
	}
	if h := m.Caches; h != nil {
		l1, l2 := h.L1Stats(), h.L2Stats()
		c["cache.l1.hits"] = l1.Hits
		c["cache.l1.misses"] = l1.Misses
		c["cache.l1.evictions"] = l1.Evictions
		c["cache.l1.writebacks"] = l1.Writebacks
		c["cache.l2.hits"] = l2.Hits
		c["cache.l2.misses"] = l2.Misses
		c["cache.l2.evictions"] = l2.Evictions
		c["cache.l2.writebacks"] = l2.Writebacks
	}
	g := make(map[string]float64, 2)
	g["mem.resident_bytes"] = float64(m.Mem.ResidentBytes())
	if m.Mem.ProvEnabled() {
		g["mem.prov_words"] = float64(m.Mem.ProvWords())
	}
	return metrics.Snapshot{Counters: c, Gauges: g}
}

// Events returns the structured trace events recorded so far (oldest
// first; the ring keeps only the most recent cpu.DefaultEventCap).
// Empty unless Config.TraceEvents or SetTracer attached a ring.
func (m *Machine) Events() []cpu.Event {
	if s := m.CPU.Events(); s != nil {
		return s.Events()
	}
	return nil
}

// EventsDropped reports how many trace events the ring overwrote.
func (m *Machine) EventsDropped() uint64 {
	if s := m.CPU.Events(); s != nil {
		return s.Dropped()
	}
	return 0
}

// ExportEventsJSONL writes the recorded trace events to w, one JSON
// object per line.
func (m *Machine) ExportEventsJSONL(w io.Writer) error {
	return cpu.WriteEventsJSONL(w, m.Events())
}
