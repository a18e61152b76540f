// Package fuzz is the coverage-guided attack fuzzing farm: a
// libFuzzer-style loop over the machine's snapshot forks. Each fuzzable
// surface (internal/attack.InputTargets) contributes a booted victim
// snapshot and a Play function that delivers one arbitrary byte string
// where the scripted attack delivers its payload; the engine mutates
// inputs from a benign seed corpus, forks the snapshot per input (past
// the target's fixed prelude, such as the FTP login) with a
// branch-edge coverage map attached (internal/cpu.CovMap), keeps inputs
// that reach new coverage features, and classifies every run through the
// fault-campaign outcome taxonomy, deduplicating alerts and crashes by
// alert-PC + provenance fingerprint.
//
// Determinism is load-bearing: candidates are derived from (corpus state
// at generation start, seed, generation, slot) and executed on the
// internal/campaign worker pool, then folded sequentially in slot order —
// so a session is byte-identical at any worker count, and (because both
// execution engines retire identical instruction streams and record
// identical edges) across the fast and reference engines too. The
// acceptance test for the whole package is rediscovery: a seeded run
// starting from benign inputs must re-find the scripted attacks' alert
// fingerprints without ever being shown the attack payloads.
package fuzz

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/taint"
)

// Config parameterizes one fuzzing session.
type Config struct {
	// Seed drives every mutation choice; same seed + same budget ⇒
	// byte-identical report at any Workers setting and on either engine.
	Seed int64
	// Execs is the per-target mutated-input budget (seeds included).
	Execs int
	// Batch is the generation size: candidates derived together from the
	// corpus state at generation start, executed in parallel, folded
	// sequentially. It is part of the deterministic schedule — changing it
	// changes which inputs get generated (default 64, at most MaxBatch).
	Batch int
	// Workers is the pool fan-out (0 = campaign.DefaultWorkers()). It is
	// NOT part of the schedule: any value yields the same report.
	Workers int
	// Reference forces the reference interpreter for every machine.
	Reference bool
	// Targets filters the fuzzable surfaces by scenario name (empty = all).
	Targets []string
	// Containment bounds the guests. Budget and MemLimit apply to the
	// machines PrepareTargets boots (0 = defaults; forks run under a
	// calibrated per-exec budget). Deadline is a per-exec wall-clock
	// backstop (0 = none): the guest's step budget is the deterministic
	// containment, and a nonzero deadline trades determinism for
	// protection against host-side wedges. Retries and Backoff do not
	// apply: a failed exec is recorded, never re-run.
	Containment core.Containment
	// TrimLimit bounds the minimization re-runs spent per admitted corpus
	// entry (default 12; negative disables trimming).
	TrimLimit int
	// Stop, when closed, drains the session: no new generations are
	// admitted, the in-flight batch's forks finish and fold, and the
	// report covers the completed prefix with Interrupted set — the
	// SIGINT path for ptfuzz. Determinism holds for the completed
	// generations: they are a prefix of the uninterrupted schedule.
	Stop <-chan struct{}
}

// policy is the taint policy every fuzzed machine runs: the paper's.
const policy = taint.PolicyPointerTaintedness

func (cfg *Config) setDefaults() {
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = campaign.DefaultWorkers()
	}
	if cfg.TrimLimit == 0 {
		cfg.TrimLimit = 12
	}
}

// Target is one prepared fuzzable surface: the input-target definition
// plus its booted snapshot, its entry snapshot and calibration state.
type Target struct {
	attack.InputTarget

	snap *attack.Snapshot
	// entry is snap advanced through the target's Prelude (snap itself
	// when there is none): every exec and trim re-run forks it, so the
	// fixed dialogue before the input runs once per target, not per exec.
	entry *attack.Snapshot
	// entryCov is the coverage the Prelude recorded. Each exec's map
	// starts as a copy of it, so counts and features are those of a run
	// from snap.
	entryCov cpu.CovMap
	// base is the boot snapshot's retired-instruction count; per-exec
	// work is measured past it, prelude included.
	base uint64
	// budget is the absolute per-fork instruction cap: several scripted
	// sessions' worth, so a mutated input that sends the guest spinning
	// trips the watchdog instead of burning core.DefaultBudget.
	budget uint64
	// scriptedFP is the scripted attack session's outcome fingerprint —
	// the oracle the fuzzer tries to rediscover from benign seeds.
	scriptedFP string
}

// ScriptedFingerprint exposes the rediscovery oracle for tests and CLIs.
func (t *Target) ScriptedFingerprint() string { return t.scriptedFP }

// Snapshot exposes the boot snapshot, from before the Prelude. Replay
// harnesses fork it and Play delivers the whole session; the fuzzer's own
// execs fork the entry snapshot past the Prelude and reach the same
// outcome, coverage and instruction count.
func (t *Target) Snapshot() *attack.Snapshot { return t.snap }

// Budget exposes the calibrated per-fork instruction cap.
func (t *Target) Budget() uint64 { return t.budget }

// PrepareTargets boots and snapshots every selected fuzzable surface,
// plays the scripted attack session once per target to record the oracle
// fingerprint, and calibrates the per-fork budget from the longer of the
// scripted session and the first benign seed. Provenance is forced on:
// the dedup fingerprints name input-origin channels.
func PrepareTargets(cfg Config) ([]*Target, error) {
	cfg.setDefaults()
	want := make(map[string]bool, len(cfg.Targets))
	for _, n := range cfg.Targets {
		want[n] = true
	}
	opts := attack.Options{
		Policy:     policy,
		Budget:     cfg.Containment.Budget,
		MemLimit:   cfg.Containment.MemLimit,
		Reference:  cfg.Reference,
		Provenance: true,
	}

	var targets []*Target
	for _, it := range attack.InputTargets() {
		if len(want) > 0 && !want[it.Scenario.Name] {
			continue
		}
		m, err := it.Scenario.Boot(opts)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", it.Scenario.Name, err)
		}
		t, err := NewTarget(it, m)
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("target filter %v matched nothing", cfg.Targets)
	}
	return targets, nil
}

// NewTarget snapshots a booted machine at the input target's snapshot
// point and calibrates it: one fork runs the Prelude under a coverage map
// and is snapshotted as the entry point, one entry fork plays the scripted
// attack session (recording the oracle fingerprint), one plays the first
// seed, and the per-fork budget covers several of the longer session.
func NewTarget(it attack.InputTarget, m *attack.Machine) (*Target, error) {
	name := it.Scenario.Name
	snap, err := m.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", name, err)
	}
	t := &Target{InputTarget: it, snap: snap, entry: snap, base: snap.Stats().Instructions}
	if it.Prelude != nil {
		pm := snap.Fork()
		pm.CPU.SetCovMap(&t.entryCov)
		if err := it.Prelude(pm); err != nil {
			return nil, fmt.Errorf("prelude %s: %w", name, err)
		}
		if t.entry, err = pm.Snapshot(); err != nil {
			return nil, fmt.Errorf("entry snapshot %s: %w", name, err)
		}
	}

	scripted := t.entry.Fork()
	out, err := it.Scenario.Session(scripted)
	if err != nil {
		return nil, fmt.Errorf("scripted session %s: %w", name, err)
	}
	t.scriptedFP = Fingerprint(out)
	sessionLen := scripted.CPU.Stats().Instructions - t.base

	if len(it.Seeds) > 0 {
		ctl := t.entry.Fork()
		if _, err := it.Play(ctl, it.Seeds[0]); err != nil {
			return nil, fmt.Errorf("seed session %s: %w", name, err)
		}
		if n := ctl.CPU.Stats().Instructions - t.base; n > sessionLen {
			sessionLen = n
		}
	}
	if sessionLen == 0 {
		sessionLen = 1
	}
	t.budget = t.base + 8*sessionLen + 200_000
	return t, nil
}

// CorpusEntry records one admitted input.
type CorpusEntry struct {
	// Input is the (possibly trimmed) input, hex encoded.
	Input string `json:"input"`
	// Exec is the exec index whose run admitted it (seeds occupy the
	// first indices).
	Exec int `json:"exec"`
	// NewFeatures is how many coverage features the admitting run saw
	// first.
	NewFeatures int `json:"new_features"`
	// Len is the trimmed input length in bytes.
	Len int `json:"len"`
}

// Finding is one deduplicated non-benign behaviour: all runs sharing an
// outcome fingerprint (alert PC + symbol + provenance channels, or crash
// PC + normalized reason) collapse into one finding holding the shortest
// witness input.
type Finding struct {
	Fingerprint string `json:"fingerprint"`
	Class       string `json:"class"`
	// Input is the shortest witness, hex encoded.
	Input string `json:"input"`
	// Evidence is the first witness's full outcome line.
	Evidence  string `json:"evidence"`
	Count     int    `json:"count"`
	FirstExec int    `json:"first_exec"`
	// Scripted marks the finding that matches the target's scripted
	// attack fingerprint — a rediscovery.
	Scripted bool `json:"scripted,omitempty"`
}

// TargetReport is one surface's fuzzing results.
type TargetReport struct {
	Description         string `json:"description"`
	ScriptedFingerprint string `json:"scripted_fingerprint"`
	// Execs is the budgeted runs (sum of Outcomes values — every exec
	// lands in exactly one class). TrimExecs counts the extra minimization
	// re-runs, reported separately so the accounting stays checkable.
	Execs     int            `json:"execs"`
	TrimExecs int            `json:"trim_execs"`
	Outcomes  map[string]int `json:"outcomes"`
	// Edges and Features are the cumulative coverage counts; CorpusSize
	// is how many inputs earned a corpus slot.
	Edges      int           `json:"edges"`
	Features   int           `json:"features"`
	CorpusSize int           `json:"corpus_size"`
	Corpus     []CorpusEntry `json:"corpus,omitempty"`
	Findings   []*Finding    `json:"findings"`
	// Rediscovered reports whether some mutated input re-found the
	// scripted attack's alert fingerprint; RediscoveredExec is the exec
	// index that first did (-1 otherwise).
	Rediscovered     bool `json:"rediscovered"`
	RediscoveredExec int  `json:"rediscovered_exec"`
	// Instructions is the total guest work across all execs, measured
	// from the snapshot — identical on both engines.
	Instructions uint64 `json:"instructions"`
}

// Report is one fuzzing session's aggregated results. Maps are keyed by
// strings and slices are in deterministic order, so the marshaled report
// is byte-identical for a given seed + budget at any worker count.
type Report struct {
	Seed    int64                    `json:"seed"`
	Policy  string                   `json:"policy"`
	Engine  string                   `json:"engine"`
	Execs   int                      `json:"execs_per_target"`
	Batch   int                      `json:"batch"`
	Targets map[string]*TargetReport `json:"targets"`
	// Rediscovered counts the targets whose scripted attack fingerprint
	// some mutated input re-found.
	Rediscovered int `json:"rediscovered"`
	// Interrupted marks a drained session (Config.Stop closed mid-run):
	// per-target exec counts cover only the generations that completed.
	Interrupted bool `json:"interrupted,omitempty"`
	// FlightLedger keeps one flight record per newly discovered anomalous
	// finding (GuestCrash / Timeout / SilentTaintLoss — expected alerts
	// are findings, not anomalies), in target then first-exec order.
	obs.FlightLedger
}

// execResult is one fork's input and classified run plus its coverage
// features.
type execResult struct {
	ok     bool // false: the slot was abandoned by the pool guard
	input  []byte
	out    attack.Outcome
	err    error
	feats  []uint32
	instrs uint64
}

// MaxBatch is the largest generation size: slotSeed packs the slot index
// into 20 bits, so a larger batch would give two slots of different
// generations the same mutation seed.
const MaxBatch = 1 << 20

// slotSeed derives the mutation seed for (generation, slot), independent
// of execution order. Slots fit in 20 bits because Fuzz rejects a Batch
// above MaxBatch.
func slotSeed(seed int64, gen, slot int) int64 {
	return int64(obs.SplitMix64(uint64(seed), uint64(gen)<<20|uint64(slot)))
}

// genState is what a generation's candidates derive from, captured by
// value when the generation starts: a slot abandoned at its deadline may
// still be mutating after the fold has moved on, and must never read the
// corpus the fold is growing.
type genState struct {
	seed  int64
	gen   int
	execs int      // exec index of the generation's slot 0
	corp  [][]byte // corpus prefix at generation start
}

// candidate builds slot's input: the target's seeds fill the first exec
// indices, then each slot mutates the generation's corpus (the seeds while
// the corpus is empty) under its own slotSeed stream: a lazySource, the
// rand.NewSource stream without the cost of seeding all 607 words.
func (g genState) candidate(t *Target, slot int) []byte {
	if idx := g.execs + slot; idx < len(t.Seeds) {
		return t.Seeds[idx]
	}
	parents := g.corp
	if len(parents) == 0 {
		parents = t.Seeds
	}
	rng := rand.New(newLazySource(slotSeed(g.seed, g.gen, slot)))
	return mutate(rng, parents, t.Dict, t.MaxLen)
}

// covPool recycles coverage maps across execs; a map belongs to exactly
// one fork between Get and Put.
var covPool = sync.Pool{New: func() any { return new(cpu.CovMap) }}

// runOne plays one input on a pooled coverage map.
func runOne(t *Target, input []byte) execResult {
	cm := covPool.Get().(*cpu.CovMap)
	defer covPool.Put(cm)
	r, _ := playEntry(t, cm, input)
	return r
}

// playEntry forks the target's entry snapshot, attaches cm holding the
// prelude's coverage, plays one input under the calibrated budget, and
// extracts features. It returns the played machine too, for tests that
// hold it to a run from the boot snapshot.
func playEntry(t *Target, cm *cpu.CovMap, input []byte) (execResult, *attack.Machine) {
	*cm = t.entryCov
	m := t.entry.Fork()
	m.SetBudget(t.budget)
	m.CPU.SetCovMap(cm)
	out, err := t.Play(m, input)
	return execResult{
		ok:     true,
		input:  input,
		out:    out,
		err:    err,
		feats:  cm.Features(make([]uint32, 0, 512)),
		instrs: m.CPU.Stats().Instructions - t.base,
	}, m
}

// classLabel folds one exec through the fault-campaign taxonomy. Fuzzed
// surfaces are all attack-arm: an alert is DetectedAlert, a guest death
// GuestCrash, containment Timeout, anything quiet Benign. A slot the pool
// guard abandoned (panic, deadline) is Timeout, matching the fault
// campaign's synthesized records.
func classLabel(r execResult) string {
	if !r.ok {
		return fault.Timeout.String()
	}
	return fault.ClassifyOutcome(fault.ArmAttack, r.out, r.err).String()
}

// containsAll reports whether the sorted feature set feats covers every
// feature in need (also sorted).
func containsAll(feats, need []uint32) bool {
	i := 0
	for _, n := range need {
		for i < len(feats) && feats[i] < n {
			i++
		}
		if i >= len(feats) || feats[i] != n {
			return false
		}
	}
	return true
}

// runOneRecover is runOne for trim re-runs, which execute outside the
// campaign pool guard: a Play that panics on the truncated candidate is
// absorbed here (ok=false), since a candidate that kills the host worker
// certainly does not preserve the admitting features.
func runOneRecover(t *Target, input []byte) (r execResult) {
	defer func() {
		if recover() != nil {
			r = execResult{}
		}
	}()
	return runOne(t, input)
}

// trimEntry minimizes an admitted input by deterministic tail
// truncation: repeatedly drop the largest suffix that still preserves
// every feature in need, spending at most limit re-runs. Returns the
// trimmed input and the re-runs spent.
func trimEntry(t *Target, input []byte, need []uint32, limit int) ([]byte, int) {
	spent := 0
	cut := len(input) / 2
	for cut >= 1 && len(input) > 1 && spent < limit {
		cand := input[:len(input)-cut]
		r := runOneRecover(t, cand)
		spent++
		if r.ok && containsAll(r.feats, need) {
			input = cand
			if cut > len(input)-1 {
				cut = len(input) - 1
			}
		} else {
			cut /= 2
		}
	}
	return input, spent
}

// bitset is a fixed-size set of small integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// add inserts i and reports whether it was absent.
func (b bitset) add(i uint32) bool {
	w, bit := &b[i/64], uint64(1)<<(i%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// fuzzTarget runs one surface's full budget: generations of Batch
// candidates derived from the corpus state at generation start, executed
// over the worker pool, folded sequentially in slot order. Flight records
// of new anomalous findings go to flights in that order.
func fuzzTarget(cfg Config, t *Target, flights *obs.FlightLedger) (*TargetReport, error) {
	name := t.Scenario.Name
	tr := &TargetReport{
		Description:         t.Scenario.Description,
		ScriptedFingerprint: t.scriptedFP,
		Outcomes:            make(map[string]int),
		RediscoveredExec:    -1,
	}
	// The cumulative coverage: one bit per possible feature and per edge
	// index, with tr.Features and tr.Edges counting the bits set. A new
	// edge always brings a new feature, so edges grow only with fresh
	// features.
	features := newBitset(cpu.CovSize * 8)
	edges := newBitset(cpu.CovSize)
	findings := make(map[string]*Finding)
	var corpus [][]byte

	opts := campaign.GuardOpts{Deadline: cfg.Containment.Deadline}
	gen := 0
	for tr.Execs < cfg.Execs && !stopRequested(cfg.Stop) {
		batch := cfg.Batch
		if rem := cfg.Execs - tr.Execs; batch > rem {
			batch = rem
		}
		// Every slot derives its candidate on its worker from the state at
		// generation start, so the schedule is worker-independent; the
		// fold below grows the corpus only after the pool returns.
		g := genState{seed: cfg.Seed, gen: gen, execs: tr.Execs, corp: corpus}
		results, _, _ := campaign.ForEachGuarded(batch, cfg.Workers, opts,
			func(i, attempt int) (execResult, error) {
				return runOne(t, g.candidate(t, i)), nil
			})
		for k, r := range results {
			execIdx := tr.Execs + k
			label := classLabel(r)
			tr.Outcomes[label]++
			tr.Instructions += r.instrs

			// Dedup non-benign behaviours by outcome fingerprint; keep the
			// shortest witness.
			if r.ok && label != fault.Benign.String() {
				fp := Fingerprint(r.out)
				if r.err != nil {
					fp = "error:" + normalizeHex(r.err.Error())
				}
				f := findings[fp]
				if f == nil {
					f = &Finding{
						Fingerprint: fp,
						Class:       label,
						Input:       hexBytes(r.input),
						Evidence:    r.out.String(),
						FirstExec:   execIdx,
						Scripted:    fp == t.scriptedFP,
					}
					if r.err != nil {
						f.Evidence = r.err.Error()
					}
					findings[fp] = f
					if f.Scripted && !tr.Rediscovered {
						tr.Rediscovered = true
						tr.RediscoveredExec = execIdx
					}
					if obs.Anomaly(label) {
						// A freshly discovered anomaly ships its own
						// forensic record: the witness, the evidence, and
						// the exec that found it. Built only here, so the
						// benign fuzzing hot path never touches obs.
						rec := obs.NewRecorder(0)
						rec.Note("finding", fp, map[string]string{
							"class":    label,
							"input":    f.Input,
							"evidence": f.Evidence,
							"exec":     fmt.Sprintf("%d", execIdx),
						}, nil)
						rec.Note("stats", "", map[string]string{
							"instructions": fmt.Sprintf("%d", r.instrs),
						}, nil)
						flights.Keep(rec.Capture(
							fmt.Sprintf("fuzz-%s-%06d", name, execIdx),
							label,
							map[string]string{"target": name, "fingerprint": fp},
						))
					}
				}
				f.Count++
				if hexLen(f.Input) > len(r.input) {
					f.Input = hexBytes(r.input)
				}
			}

			// Coverage admission: any run touching a feature class no prior
			// run touched earns a (minimized) corpus slot.
			var fresh []uint32
			for _, ft := range r.feats {
				if features.add(ft) {
					fresh = append(fresh, ft)
					if edges.add(ft / 8) {
						tr.Edges++
					}
				}
			}
			if len(fresh) == 0 {
				continue
			}
			tr.Features += len(fresh)
			input := r.input
			if cfg.TrimLimit > 0 {
				var spent int
				input, spent = trimEntry(t, input, fresh, cfg.TrimLimit)
				tr.TrimExecs += spent
			}
			corpus = append(corpus, input)
			tr.Corpus = append(tr.Corpus, CorpusEntry{
				Input:       hexBytes(input),
				Exec:        execIdx,
				NewFeatures: len(fresh),
				Len:         len(input),
			})
		}
		tr.Execs += batch
		gen++
	}

	tr.CorpusSize = len(corpus)
	for _, f := range findings {
		tr.Findings = append(tr.Findings, f)
	}
	sort.Slice(tr.Findings, func(i, j int) bool {
		return tr.Findings[i].Fingerprint < tr.Findings[j].Fingerprint
	})
	total := 0
	for _, n := range tr.Outcomes {
		total += n
	}
	if total != tr.Execs {
		return nil, fmt.Errorf("%s: outcome accounting broken: %d recorded, %d executed", name, total, tr.Execs)
	}
	return tr, nil
}

// stopRequested reports whether the drain channel has closed.
func stopRequested(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Fuzz runs the configured budget over prepared targets and aggregates
// the report. Targets run sequentially; the parallelism is inside each
// generation. A closed Config.Stop drains the session: the in-flight
// generation finishes and folds, remaining work is skipped, and the
// partial report carries Interrupted.
func Fuzz(cfg Config, targets []*Target) (*Report, error) {
	cfg.setDefaults()
	if cfg.Batch > MaxBatch {
		return nil, fmt.Errorf("batch %d exceeds the maximum generation size %d", cfg.Batch, MaxBatch)
	}
	rep := &Report{
		Seed:    cfg.Seed,
		Policy:  policy.String(),
		Engine:  engineName(cfg.Reference),
		Execs:   cfg.Execs,
		Batch:   cfg.Batch,
		Targets: make(map[string]*TargetReport),
	}
	for _, t := range targets {
		tr, err := fuzzTarget(cfg, t, &rep.FlightLedger)
		if err != nil {
			return nil, err
		}
		rep.Targets[t.Scenario.Name] = tr
		if tr.Rediscovered {
			rep.Rediscovered++
		}
		if tr.Execs < cfg.Execs && stopRequested(cfg.Stop) {
			rep.Interrupted = true
		}
	}
	return rep, nil
}

// Run prepares the configured targets and fuzzes them.
func Run(cfg Config) (*Report, error) {
	cfg.setDefaults()
	targets, err := PrepareTargets(cfg)
	if err != nil {
		return nil, err
	}
	return Fuzz(cfg, targets)
}

func engineName(reference bool) string {
	if reference {
		return "reference"
	}
	return "fast"
}

// hexBytes renders input for the JSON report.
func hexBytes(b []byte) string { return fmt.Sprintf("%x", b) }

// hexLen is the byte length of a hex-encoded input.
func hexLen(s string) int { return len(s) / 2 }
