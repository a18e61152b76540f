// Package attack drives the paper's attack scenarios against the program
// corpus: it boots a victim program on the taint-tracking machine, plays
// the attacker over the simulated network / stdin / argv, and reports
// whether the detection policy fired, what the alert said, and — when the
// policy missed — whether the compromise actually landed. It is the engine
// behind the Section 5.1 evaluation (Fig. 2 detections, Table 2, and the
// §5.1.2 coverage matrix).
package attack

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/progs"
	"repro/internal/taint"
)

// DefaultBudget bounds one victim run. It is the same envelope every
// entry point shares (core.DefaultContainment), not a per-package number.
const DefaultBudget = core.DefaultBudget

// DefaultMemLimit bounds one victim's resident guest memory (256 MiB —
// far above any corpus program's footprint, low enough that a runaway
// guest cannot exhaust the host). Shared via core.DefaultContainment.
const DefaultMemLimit = core.DefaultMemLimit

// Machine is one booted victim instance.
type Machine struct {
	Image  *asm.Image
	Kernel *kernel.Kernel
	CPU    *cpu.CPU
	Mem    *mem.Memory
	Caches *cache.Hierarchy // nil without Options.WithCache

	budget    uint64
	reference bool
}

// Options configures a victim boot. Attack drivers and Scenario.Boot take
// one too: they set the fields their attack needs (stdin, argv, a tighter
// budget) and keep the caller's values for the rest.
type Options struct {
	Policy taint.Policy
	Prop   taint.Propagator
	Args   []string // argv[1:]; argv[0] is the program name
	Env    []string
	Stdin  []byte
	Files  map[string][]byte // preloaded filesystem contents
	Budget uint64
	// MemLimit caps resident guest memory in bytes (default
	// DefaultMemLimit; negative disables the cap). Exceeding it surfaces
	// as a *mem.LimitError from Run, never as a host allocation.
	MemLimit int
	// WithCache interposes the default L1/L2 hierarchy between the CPU and
	// memory, so taint bits travel through cache lines (Section 4.1).
	WithCache bool
	// Reference forces the classic one-instruction Step interpreter
	// instead of the predecoded basic-block fast path. The two are
	// behaviourally identical (internal/cpu/differential_test.go); the
	// reference path exists for cross-checking and debugging.
	Reference bool
	// Provenance enables taint-provenance tracking: every external input
	// byte gets an origin label, Table 1 propagation merges labels, and a
	// SecurityAlert carries the chain back to the exact syscall input.
	// Requires flat memory (incompatible with WithCache).
	Provenance bool
	// Events, when non-nil, receives every structured trace event of the
	// machine as JSONL while it runs. Subscribers run on the emitting
	// goroutine unsynchronized, so one writer must not be shared by
	// machines that run concurrently.
	Events io.Writer
}

// Boot compiles and loads a corpus program under the given options.
func Boot(p progs.Program, opts Options) (*Machine, error) {
	im, err := p.Build()
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", p.Name, err)
	}
	return BootImage(p.Name, im, opts)
}

// BootImage loads a prebuilt image under the given options. Boot-time
// panics (a malformed image whose load trips the memory limit, say) are
// recovered into errors — booting untrusted images must not take the
// host down.
func BootImage(name string, im *asm.Image, opts Options) (machine *Machine, err error) {
	defer func() {
		if r := recover(); r != nil {
			machine, err = nil, fmt.Errorf("boot %s: %v", name, r)
		}
	}()
	k := kernel.New()
	m := mem.New()
	switch {
	case opts.MemLimit > 0:
		m.SetResidentLimit(opts.MemLimit)
	case opts.MemLimit == 0:
		m.SetResidentLimit(DefaultMemLimit)
	}
	var bus cpu.Bus = m
	var hier *cache.Hierarchy
	if opts.WithCache {
		var err error
		hier, err = cache.NewDefaultHierarchy(m)
		if err != nil {
			return nil, fmt.Errorf("cache hierarchy: %w", err)
		}
		bus = hier
	}
	c := cpu.New(cpu.Config{
		Bus:     bus,
		Policy:  opts.Policy,
		Prop:    opts.Prop,
		Handler: k,
		Image:   im,
	})
	c.LoadImage(m, im)
	k.SetBreak(im.DataEnd)
	// Provenance must be live before SetArgs so the boot-time taint
	// sources (argv/env bytes) get origin labels too.
	if opts.Provenance {
		if err := c.EnableProvenance(); err != nil {
			return nil, fmt.Errorf("boot %s: %w", name, err)
		}
	}
	if opts.Events != nil {
		c.EnableEvents(0).Stream(cpu.StreamJSONL(opts.Events))
	}
	k.SetArgs(c, append([]string{name}, opts.Args...), opts.Env)
	if opts.Stdin != nil {
		k.SetStdin(opts.Stdin)
	}
	for path, data := range opts.Files {
		k.FS.WriteFile(path, data)
	}
	if !opts.Reference {
		// Install the static analyzer's provably-clean facts so the fast
		// path can skip runtime taint checks the analysis discharged.
		// The reference interpreter never consumes facts — it remains the
		// independent oracle the differential harness compares against.
		if facts := staticFactsFor(im, opts.Prop); facts != nil {
			c.SetStaticFacts(facts)
		}
	}
	budget := opts.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	return &Machine{
		Image: im, Kernel: k, CPU: c, Mem: m, Caches: hier,
		budget:    budget,
		reference: opts.Reference,
	}, nil
}

// Metrics aggregates every subsystem's counters into one metrics
// snapshot — the machine-wide observability view campaign workers capture
// per session and merge deterministically.
func (m *Machine) Metrics() metrics.Snapshot {
	r := metrics.New()
	m.CPU.FillMetrics(r)
	m.Mem.FillMetrics(r)
	m.Kernel.FillMetrics(r)
	if m.Caches != nil {
		m.Caches.FillMetrics(r)
	}
	return r.Snapshot()
}

// Sync flushes dirty cache lines to memory so host-side inspection of Mem
// sees the guest's latest state.
func (m *Machine) Sync() {
	if m.Caches != nil {
		m.Caches.FlushAll()
	}
}

// Run executes until the guest exits, blocks on I/O, faults, or alerts.
// A clean exit returns nil; a block returns *kernel.BlockedError.
func (m *Machine) Run() error {
	if m.reference {
		return m.CPU.Run(m.budget)
	}
	return m.CPU.RunFast(m.budget)
}

// SetBudget overrides the per-Run instruction budget. Fault campaigns
// tighten it per fork — a calibrated multiple of the control session's
// length — so a wedged injection trips the watchdog quickly instead of
// burning the full default budget.
func (m *Machine) SetBudget(n uint64) {
	if n == 0 {
		n = DefaultBudget
	}
	m.budget = n
}

// Budget returns the current per-Run instruction budget.
func (m *Machine) Budget() uint64 { return m.budget }

// RunToBlock runs and requires the guest to block (a server waiting for
// the attacker); any other outcome is returned as an error.
func (m *Machine) RunToBlock() error {
	err := m.Run()
	var blocked *kernel.BlockedError
	if errors.As(err, &blocked) {
		return nil
	}
	if err == nil {
		return errors.New("guest exited instead of blocking")
	}
	return err
}

// Connect opens an attacker connection to a guest port.
func (m *Machine) Connect(port uint16) (*netsim.Endpoint, error) {
	return m.Kernel.Net.Connect(port)
}

// Transact sends input on ep, resumes the guest until it blocks again (or
// terminates), and returns everything the guest wrote to the connection.
// err is nil while the guest is merely waiting for more input.
func (m *Machine) Transact(ep *netsim.Endpoint, input string) (string, error) {
	if input != "" {
		ep.SendString(input)
	}
	err := m.Run()
	var blocked *kernel.BlockedError
	if errors.As(err, &blocked) {
		err = nil
	}
	return ep.RecvString(), err
}

// Symbol resolves a program symbol, failing loudly when missing.
func (m *Machine) Symbol(name string) (uint32, error) {
	a, ok := m.Image.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("symbol %q not in image", name)
	}
	return a, nil
}

// Outcome classifies one attack run.
type Outcome struct {
	// Detected is true when the policy raised a security alert.
	Detected bool
	// Alert holds the alert when Detected.
	Alert *cpu.SecurityAlert
	// Crashed is true when the victim died on a machine fault (a hijack
	// attempt that went off the rails rather than being detected).
	Crashed bool
	// Fault holds the fault when Crashed.
	Fault *cpu.Fault
	// Compromised is true when the attack's goal state was verified
	// (privilege escalated, policy bypassed, memory corrupted).
	Compromised bool
	// TimedOut is true when containment ended the run: the step-budget
	// watchdog tripped, the guest hit its resident-memory limit, or a
	// host panic was recovered at the machine boundary — a runaway or
	// wedged guest, not a verdict about the attack itself.
	TimedOut bool
	// Evidence describes the verified compromise or the alert.
	Evidence string
}

// Classify folds a terminal run error into an Outcome. It is the single
// decoder of the machine's error taxonomy: security alerts → Detected,
// architectural faults and recovered host panics → Crashed, containment
// trips (step budget, memory limit) → TimedOut.
func Classify(err error) Outcome {
	var out Outcome
	var alert *cpu.SecurityAlert
	var fault *cpu.Fault
	var budget *cpu.StepBudgetError
	var memLimit *mem.LimitError
	var guest *cpu.GuestFault
	switch {
	case errors.As(err, &alert):
		out.Detected = true
		out.Alert = alert
		out.Evidence = alert.Error()
	case errors.As(err, &fault):
		out.Crashed = true
		out.Fault = fault
		out.Evidence = fault.Error()
	case errors.As(err, &budget), errors.As(err, &memLimit):
		out.TimedOut = true
		out.Evidence = err.Error()
	case errors.As(err, &guest):
		out.Crashed = true
		out.Evidence = guest.Error()
	}
	return out
}

// String renders the outcome for experiment tables.
func (o Outcome) String() string {
	switch {
	case o.Detected:
		return "DETECTED: " + o.Evidence
	case o.Compromised:
		return "COMPROMISED: " + o.Evidence
	case o.Crashed:
		return "CRASHED: " + o.Evidence
	case o.TimedOut:
		return "TIMEOUT: " + o.Evidence
	default:
		return "no effect"
	}
}
