package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/taint"
)

// newRng builds the deterministic per-run generator.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Arm distinguishes the two campaign arms: attack targets, where the
// un-faulted control must detect, and benign targets, where any alert is
// a false positive.
type Arm string

// The campaign arms.
const (
	ArmAttack Arm = "attack"
	ArmBenign Arm = "benign"
)

// Target is one prepared workload a campaign injects into: a snapshot of
// the booted victim plus the replayable session, calibrated by one
// un-faulted control run.
type Target struct {
	Name        string
	Arm         Arm
	Description string

	snap    *attack.Snapshot
	session func(m *attack.Machine) (attack.Outcome, error)

	// Base is the snapshot's retired-instruction count; triggers are
	// offsets past it.
	Base uint64
	// SessionLen is the control session's retired instructions — the
	// window triggers are drawn from.
	SessionLen uint64
	// Control is the un-faulted session's outcome.
	Control attack.Outcome
	// ControlClass is Control folded through the taxonomy.
	ControlClass Class
}

// budgetFor returns the tightened absolute instruction budget for one
// injected fork: enough for several control sessions' worth of work, so a
// fault that sends the guest spinning trips the watchdog quickly instead
// of burning core.DefaultBudget.
func (t *Target) budgetFor() uint64 {
	return t.Base + 4*t.SessionLen + 100_000
}

// benignSpec lists the benign-arm corpus: SPEC analogues with seeded
// /input files, which exercise the taint datapath without any attack.
var benignSpec = []string{"gzips", "parsers"}

// policy is the taint policy every campaign machine runs: the paper's.
const policy = taint.PolicyPointerTaintedness

// PrepareTargets boots and snapshots every campaign target: the three
// replayable attack scenarios and a benign corpus (an exp1 run with a
// harmless short input, plus SPEC analogues). Preparation runs the
// control session once per target to calibrate SessionLen and record the
// control outcome. filter selects targets by name; a nil filter selects
// cfg.Targets (empty = all).
func PrepareTargets(cfg Config, filter func(name string) bool) ([]*Target, error) {
	opts := attack.Options{
		Policy:     policy,
		Budget:     cfg.Containment.Budget,
		MemLimit:   cfg.Containment.MemLimit,
		Reference:  cfg.Reference,
		Provenance: cfg.Provenance,
	}
	if filter == nil && len(cfg.Targets) > 0 {
		want := make(map[string]bool, len(cfg.Targets))
		for _, n := range cfg.Targets {
			want[n] = true
		}
		filter = func(name string) bool { return want[name] }
	}

	var targets []*Target
	for _, sc := range attack.Scenarios() {
		sc := sc
		if filter != nil && !filter(sc.Name) {
			continue
		}
		m, err := sc.Boot(opts)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", sc.Name, err)
		}
		t, err := newTarget(sc.Name, ArmAttack, sc.Description, m, sc.Session)
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}

	benign := []struct {
		name  string
		prog  string
		stdin string
	}{
		{"exp1-benign", "exp1", "hi\n"},
	}
	for _, name := range benignSpec {
		benign = append(benign, struct {
			name  string
			prog  string
			stdin string
		}{name, name, "benign input\n"})
	}
	for _, b := range benign {
		if filter != nil && !filter(b.name) {
			continue
		}
		p, ok := progs.ByName(b.prog)
		if !ok {
			return nil, fmt.Errorf("benign target %s: program %q not in corpus", b.name, b.prog)
		}
		bopts := opts
		bopts.Stdin = []byte(b.stdin)
		bopts.Files = map[string][]byte{"/input": progs.SpecInput(b.prog, 1)}
		m, err := attack.Boot(p, bopts)
		if err != nil {
			return nil, fmt.Errorf("boot %s: %w", b.name, err)
		}
		t, err := newTarget(b.name, ArmBenign, p.Description, m,
			func(m *attack.Machine) (attack.Outcome, error) {
				return attack.Classify(m.Run()), nil
			})
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	if len(targets) == 0 {
		return nil, errors.New("no targets selected")
	}
	return targets, nil
}

// newTarget snapshots m and calibrates the target with one control run.
func newTarget(name string, arm Arm, desc string, m *attack.Machine,
	session func(*attack.Machine) (attack.Outcome, error)) (*Target, error) {
	snap, err := m.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", name, err)
	}
	t := &Target{
		Name: name, Arm: arm, Description: desc,
		snap: snap, session: session,
		Base: snap.Stats().Instructions,
	}
	ctl := snap.Fork()
	out, err := session(ctl)
	if err != nil {
		return nil, fmt.Errorf("control session %s: %w", name, err)
	}
	t.Control = out
	t.SessionLen = ctl.CPU.Stats().Instructions - t.Base
	if t.SessionLen == 0 {
		t.SessionLen = 1
	}
	t.ControlClass = classifyOutcome(arm, out, nil)
	return t, nil
}

// ClassifyOutcome folds a session's outcome (and any session-level error)
// into the taxonomy — the exported entry point the fuzzing farm uses so
// fuzz runs and fault-injection runs land in one outcome lattice.
func ClassifyOutcome(arm Arm, out attack.Outcome, err error) Class {
	return classifyOutcome(arm, out, err)
}

// classifyOutcome folds a session's outcome (and any session-level error)
// into the taxonomy. Precedence: containment first (Timeout), then the
// alert (DetectedAlert on the attack arm, SpuriousAlert on the benign
// arm), then a verified compromise with no alert (SilentTaintLoss — only
// the attack arm can verify one), then fail-stop (GuestCrash), else
// Benign. A session-level error (a corrupted protocol dialogue, a guest
// death mid-handshake) is decoded through attack.Classify and lands in
// the same lattice; an unrecognized error counts as GuestCrash, never as
// silence.
func classifyOutcome(arm Arm, out attack.Outcome, err error) Class {
	if err != nil {
		o := attack.Classify(err)
		switch {
		case o.TimedOut:
			return Timeout
		case o.Detected:
			out.Detected = true
		case o.Crashed:
			out.Crashed = true
		default:
			return GuestCrash
		}
	}
	switch {
	case out.TimedOut:
		return Timeout
	case out.Detected && arm == ArmAttack:
		return DetectedAlert
	case out.Detected:
		return SpuriousAlert
	case out.Compromised && arm == ArmAttack:
		return SilentTaintLoss
	case out.Crashed:
		return GuestCrash
	default:
		return Benign
	}
}

// Config parameterizes a campaign.
type Config struct {
	// Seed drives every per-run random choice; same seed ⇒ byte-identical
	// report at any worker count.
	Seed int64
	// Runs is the number of injected runs, dealt round-robin over the
	// target × injector grid.
	Runs int
	// Workers is the fan-out width (0 = campaign.DefaultWorkers()).
	Workers int
	// Reference forces the reference interpreter for every machine.
	Reference bool
	// Provenance records taint provenance on every target, so a
	// SilentTaintLoss caused by the taint-loss injector names the exact
	// input origins whose tracking the fault destroyed.
	Provenance bool
	// Targets and InjectorNames filter the grid (empty = all). Targets
	// also selects what PrepareTargets boots when given no filter.
	Targets       []string
	InjectorNames []string
	// Containment bounds the guests and the pool guard. Budget and
	// MemLimit apply to the machines PrepareTargets boots (0 = defaults;
	// injected forks run under a tighter calibrated budget). Deadline is
	// the per-run wall-clock backstop (0 = none): the deterministic
	// containment is the guest's own step budget, and a run the deadline
	// reaps classifies as Timeout. Retries bounds the extra attempts a
	// panicked or errored run gets (retry-with-reseed; 0 = the default of
	// 1, negative = none). Backoff is the base delay before each retry,
	// growing exponentially with seeded jitter (0 = immediate retries).
	Containment core.Containment
	// Stop, when closed, drains the campaign: no new runs are admitted,
	// in-flight forks finish, and the report carries Interrupted with the
	// skipped-slot count — the SIGINT path for ptfault.
	Stop <-chan struct{}
}

// RunResult is one injected run's classified outcome.
type RunResult struct {
	Index    int    `json:"index"`
	Target   string `json:"target"`
	Arm      Arm    `json:"arm"`
	Injector string `json:"injector"`
	Trigger  uint64 `json:"trigger"` // instruction offset past the snapshot
	Applied  bool   `json:"applied"`
	Detail   string `json:"detail,omitempty"`
	Class    string `json:"class"`
	Evidence string `json:"evidence,omitempty"`
	// LostTaint names the input origins of the taint the injection
	// cleared (taint-loss under Config.Provenance), captured before the
	// shadow bit was destroyed — so a SilentTaintLoss run reports WHICH
	// tracked attacker bytes the machine lost sight of.
	LostTaint []string `json:"lost_taint,omitempty"`
	// Metrics is the injected machine's full metrics snapshot; it feeds
	// the report-level aggregate and is not serialized per run.
	Metrics metrics.Snapshot `json:"-"`
	// Flight is the run's flight record, captured only when the run
	// classified as an anomaly (obs.Anomaly); nil otherwise. Its
	// normalized form is a pure function of the run seed — identical at
	// any worker count and under either engine.
	Flight *obs.Flight `json:"-"`
}

// Cell aggregates one target × injector grid cell.
type Cell struct {
	Runs     int            `json:"runs"`
	Outcomes map[string]int `json:"outcomes"`
}

// TargetReport is one target's rows of the coverage grid.
type TargetReport struct {
	Arm          Arm              `json:"arm"`
	SessionLen   uint64           `json:"session_len"`
	ControlClass string           `json:"control_class"`
	Cells        map[string]*Cell `json:"cells"` // keyed by injector name
}

// Report is a campaign's aggregated coverage report. All maps are keyed
// by strings, so encoding/json renders them in sorted order and the
// marshaled report is byte-identical for a given seed.
type Report struct {
	Seed   int64  `json:"seed"`
	Policy string `json:"policy"`
	Engine string `json:"engine"`
	Runs   int    `json:"runs"`
	// Retries is the pool guard's extra-attempt count across the campaign
	// (panicked or abandoned runs that were re-seeded and re-run).
	Retries int `json:"retries"`
	// Interrupted marks a drained campaign (Stop closed mid-run): the
	// report is the completed prefix, with Skipped slots never started.
	Interrupted bool                     `json:"interrupted,omitempty"`
	Skipped     int                      `json:"skipped,omitempty"`
	Outcomes    map[string]int           `json:"outcomes"`
	Targets     map[string]*TargetReport `json:"targets"`
	// SilentLosses lists, in run-index order, one line per SilentTaintLoss
	// run explaining which cleared taint origins were lost (or that
	// provenance was off and nobody can say).
	SilentLosses []string `json:"silent_losses,omitempty"`
	// Metrics is the value-wise merge of every run's machine metrics.
	Metrics metrics.Snapshot `json:"metrics"`
	// Results carries every per-run record in index order (omitted from
	// compact reports).
	Results []RunResult `json:"results,omitempty"`
	// FlightLedger keeps the flight records of anomalous runs in index
	// order — the forensic artifacts WriteFlights ships to disk.
	obs.FlightLedger
}

// Campaign runs cfg.Runs injected sessions over the prepared targets and
// aggregates the coverage report. Each run forks its target's snapshot,
// arms its injector at a seeded trigger inside the control session's
// instruction window, replays the session under a tightened step budget,
// and classifies the outcome. Runs are independent and seeded by index,
// so the report is identical at any worker count.
func Campaign(cfg Config, targets []*Target, keepResults bool) (*Report, error) {
	injectors := Injectors()
	if len(cfg.InjectorNames) > 0 {
		var sel []Injector
		for _, name := range cfg.InjectorNames {
			in, ok := InjectorByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown injector %q", name)
			}
			sel = append(sel, in)
		}
		injectors = sel
	}
	if len(cfg.Targets) > 0 {
		want := make(map[string]bool, len(cfg.Targets))
		for _, n := range cfg.Targets {
			want[n] = true
		}
		var sel []*Target
		for _, t := range targets {
			if want[t.Name] {
				sel = append(sel, t)
			}
		}
		if len(sel) == 0 {
			return nil, fmt.Errorf("target filter %v matched nothing", cfg.Targets)
		}
		targets = sel
	}
	if cfg.Runs <= 0 {
		cfg.Runs = len(targets) * len(injectors)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = campaign.DefaultWorkers()
	}

	retries := cfg.Containment.Retries
	switch {
	case retries == 0:
		retries = 1
	case retries < 0:
		retries = 0
	}
	opts := campaign.GuardOpts{
		Deadline: cfg.Containment.Deadline,
		Retries:  retries,
		Backoff:  cfg.Containment.Backoff,
		Seed:     cfg.Seed,
		Stop:     cfg.Stop,
	}
	results, gs, _ := campaign.ForEachGuarded(cfg.Runs, workers, opts,
		func(i, attempt int) (RunResult, error) {
			t := targets[i%len(targets)]
			in := injectors[(i/len(targets))%len(injectors)]
			// The run seed depends on the campaign seed and the run index
			// only, never on execution order.
			seed := int64(obs.SplitMix64(uint64(cfg.Seed), uint64(i)))
			return runOne(t, in, i, seed+int64(attempt)), nil
		})

	rep := &Report{
		Seed:        cfg.Seed,
		Policy:      policy.String(),
		Engine:      engineName(cfg.Reference),
		Runs:        gs.Started,
		Retries:     gs.Retries,
		Interrupted: gs.Stopped > 0,
		Skipped:     gs.Stopped,
		Outcomes:    make(map[string]int),
		Targets:     make(map[string]*TargetReport),
	}
	for _, t := range targets {
		rep.Targets[t.Name] = &TargetReport{
			Arm:          t.Arm,
			SessionLen:   t.SessionLen,
			ControlClass: t.ControlClass.String(),
			Cells:        make(map[string]*Cell),
		}
	}
	for i, r := range results {
		if i >= gs.Started {
			// Never started: the campaign was drained. These slots are
			// skipped outright — they are accounted in Skipped, not in the
			// outcome grid, so sum(outcomes) still equals Runs.
			break
		}
		if r.Target == "" {
			// The slot's attempts all failed (deadline or repeated panic):
			// synthesize a Timeout record so the report stays complete.
			t := targets[i%len(targets)]
			in := injectors[(i/len(targets))%len(injectors)]
			r = RunResult{
				Index: i, Target: t.Name, Arm: t.Arm, Injector: in.Name,
				Class: Timeout.String(), Detail: "run abandoned by the pool guard",
			}
			results[i] = r
		}
		tr := rep.Targets[r.Target]
		cell := tr.Cells[r.Injector]
		if cell == nil {
			cell = &Cell{Outcomes: make(map[string]int)}
			tr.Cells[r.Injector] = cell
		}
		cell.Runs++
		cell.Outcomes[r.Class]++
		rep.Outcomes[r.Class]++
		rep.Metrics = rep.Metrics.Merge(r.Metrics)
		// The fold walks results in index order, so the retained flights
		// are the first anomalies by run index regardless of worker count.
		rep.Keep(r.Flight)
		if r.Class == SilentTaintLoss.String() {
			loss := strings.Join(r.LostTaint, "; ")
			if loss == "" {
				loss = "(provenance off: lost origins unrecorded)"
			}
			rep.SilentLosses = append(rep.SilentLosses,
				fmt.Sprintf("run %d %s/%s @+%d: %s", r.Index, r.Target, r.Injector, r.Trigger, loss))
		}
	}
	if keepResults {
		rep.Results = results[:gs.Started]
	}
	return rep, nil
}

// runOne executes one injected session with the always-on flight
// recorder rolling: spans for the fork/run/classify phases plus the
// injection and outcome milestones land in a bounded ring, and if the
// run classifies as an anomaly the ring is frozen into a Flight whose
// normalized form depends only on the run seed.
func runOne(t *Target, in Injector, index int, seed int64) RunResult {
	rng := newRng(seed)
	trigger := 1 + uint64(rng.Int63n(int64(t.SessionLen)))
	r := RunResult{
		Index: index, Target: t.Name, Arm: t.Arm,
		Injector: in.Name, Trigger: trigger,
	}
	tr := obs.NewTracer(uint64(seed))
	rec := obs.NewRecorder(0)

	fork := tr.Start(nil, "snapshot-fork")
	m := t.snap.Fork()
	m.SetBudget(t.budgetFor())
	if in.Name == "none" {
		r.Applied, r.Detail = true, "control"
	} else {
		m.CPU.InjectAt(t.Base+trigger, func(*cpu.CPU) {
			eff := in.Apply(m, rng)
			r.Detail, r.Applied, r.LostTaint = eff.Detail, eff.Applied, eff.LostTaint
		})
	}
	fork.End()

	run := tr.Start(nil, "run")
	out, err := t.session(m)
	run.End()

	cls := tr.Start(nil, "classify")
	r.Class = classifyOutcome(t.Arm, out, err).String()
	r.Evidence = out.Evidence
	if err != nil && r.Evidence == "" {
		r.Evidence = err.Error()
	}
	r.Metrics = m.Metrics()
	cls.End()

	rec.AddSpans(tr.Records())
	rec.Note("inject", in.Name, map[string]string{
		"trigger": fmt.Sprintf("%d", trigger),
		"applied": fmt.Sprintf("%t", r.Applied),
		"detail":  r.Detail,
	}, nil)
	s := m.CPU.Stats()
	// Architectural counters are byte-identical across engines (the
	// differential harness's contract); engine-private counters go in
	// the volatile channel so Normalize strips them.
	rec.Note("stats", "", map[string]string{
		"instructions": fmt.Sprintf("%d", s.Instructions),
		"loads":        fmt.Sprintf("%d", s.Loads),
		"stores":       fmt.Sprintf("%d", s.Stores),
		"branches":     fmt.Sprintf("%d", s.Branches),
		"syscalls":     fmt.Sprintf("%d", s.Syscalls),
		"alerts":       fmt.Sprintf("%d", s.Alerts),
	}, map[string]any{
		"clean_skips": s.CleanSkips,
		"sb_runs":     s.SuperblockRuns,
		"sb_deopts":   s.SuperblockDeopts,
	})
	rec.Note("outcome", r.Class, map[string]string{
		"evidence":   r.Evidence,
		"lost_taint": strings.Join(r.LostTaint, "; "),
	}, nil)
	if obs.Anomaly(r.Class) {
		r.Flight = rec.Capture(
			fmt.Sprintf("fault-%04d-%s-%s", index, t.Name, in.Name),
			r.Class,
			map[string]string{"target": t.Name, "arm": string(t.Arm), "injector": in.Name},
		)
	}
	return r
}

func engineName(reference bool) string {
	if reference {
		return "reference"
	}
	return "fast"
}

// Check validates the paper-level invariants a healthy campaign must
// satisfy: every attack-arm control cell detects, every benign-arm
// control cell is Benign, no control run anywhere loses taint silently,
// and the injected attack arm still detects somewhere (injection did not
// destroy the mechanism wholesale). It returns all violations joined.
func (rep *Report) Check() error {
	var errs []string
	injectedDetections := 0
	names := make([]string, 0, len(rep.Targets))
	for name := range rep.Targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tr := rep.Targets[name]
		for inj, cell := range tr.Cells {
			if inj == "none" {
				if n := cell.Outcomes[SilentTaintLoss.String()]; n > 0 {
					errs = append(errs, fmt.Sprintf("%s: %d SilentTaintLoss on the un-faulted control arm", name, n))
				}
				switch tr.Arm {
				case ArmAttack:
					if cell.Outcomes[DetectedAlert.String()] != cell.Runs {
						errs = append(errs, fmt.Sprintf("%s: control arm detected %d/%d",
							name, cell.Outcomes[DetectedAlert.String()], cell.Runs))
					}
				case ArmBenign:
					if cell.Outcomes[Benign.String()] != cell.Runs {
						errs = append(errs, fmt.Sprintf("%s: benign control not all Benign (%v)",
							name, cell.Outcomes))
					}
				}
				continue
			}
			if tr.Arm == ArmAttack {
				injectedDetections += cell.Outcomes[DetectedAlert.String()]
			}
		}
	}
	if injectedDetections == 0 {
		errs = append(errs, "no DetectedAlert on the injected attack arm")
	}
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "; "))
	}
	return nil
}
