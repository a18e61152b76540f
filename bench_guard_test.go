package repro_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
)

// provBaseline is the BENCH_provenance.json schema: the recorded fast-path
// cost with provenance machinery compiled in but disabled, the tolerance
// the guard enforces, and the informational provenance-enabled figure.
type provBaseline struct {
	// FastNsPerInstr is the guarded number: BenchmarkStepFastPath's
	// hot-loop cost with provenance and tracing disabled, recorded when
	// the observability layer landed.
	FastNsPerInstr float64 `json:"fast_ns_per_instr"`
	// ProvNsPerInstr is informational: the same workload with provenance
	// labels live. Not guarded — the contract is only that the DISABLED
	// path stays free.
	ProvNsPerInstr float64 `json:"prov_ns_per_instr"`
	// TolerancePct is the allowed regression over FastNsPerInstr.
	TolerancePct float64 `json:"tolerance_pct"`
	// Host documents where the baseline was taken; guard runs on a
	// different host are expected to re-record rather than compare.
	Host string `json:"host"`
}

// measureNsPerInstr runs the hot-loop workload (the same program as
// BenchmarkStepFastPath) on the fast path and returns ns per retired
// guest instruction. With coverage set, a branch-edge coverage map is
// attached (the fuzzing farm's configuration); the guarded baseline runs
// with it detached, which must stay free. With nosb set, the superblock
// trace tier is disabled so the measurement isolates the basic-block
// path the older baselines were recorded against.
func measureNsPerInstr(t *testing.T, provenance, coverage, nosb bool) float64 {
	t.Helper()
	r := testing.Benchmark(func(b *testing.B) {
		var total uint64
		var cm cpu.CovMap
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m, err := core.BuildC(core.Config{
				Budget: 1 << 40, Provenance: provenance,
			}, hotLoopSrc)
			if err != nil {
				b.Fatal(err)
			}
			if nosb {
				m.CPU.SetSuperblocks(false)
			}
			if coverage {
				cm.Reset()
				m.SetCovMap(&cm)
			}
			b.StartTimer()
			runErr := m.Run()
			var ee *core.ExitError
			if runErr != nil && !errors.As(runErr, &ee) {
				b.Fatal(runErr)
			}
			total += m.Stats().Instructions
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/instr")
	})
	return r.Extra["ns/instr"]
}

// TestProvenanceBenchGuard enforces the observability layer's zero-cost
// contract: with provenance and tracing disabled, the fast path must stay
// within the recorded tolerance of the committed BENCH_provenance.json
// baseline. Benchmark comparisons are too noisy for an always-on test, so
// the guard only arms under PTBENCH_GUARD=1 (`make trace-check` sets it);
// it takes the best of three runs to damp scheduler noise.
func TestProvenanceBenchGuard(t *testing.T) {
	if os.Getenv("PTBENCH_GUARD") != "1" {
		t.Skip("set PTBENCH_GUARD=1 to arm the provenance bench guard")
	}
	data, err := os.ReadFile("BENCH_provenance.json")
	if err != nil {
		t.Fatalf("no recorded baseline: %v", err)
	}
	var base provBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("bad baseline: %v", err)
	}
	if base.FastNsPerInstr <= 0 || base.TolerancePct <= 0 {
		t.Fatalf("baseline not recorded: %+v", base)
	}

	// The baseline predates the superblock tier, so the guarded run
	// disables it: this test holds the basic-block path to its recorded
	// cost, TestSuperblockBenchGuard holds the superblock tier to its own
	// (much lower) floor.
	limit := base.FastNsPerInstr * (1 + base.TolerancePct/100)
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		got := measureNsPerInstr(t, false, false, true)
		if best == 0 || got < best {
			best = got
		}
		t.Logf("attempt %d: %.2f ns/instr (best %.2f, limit %.2f)", attempt+1, got, best, limit)
		if best <= limit {
			break
		}
	}
	if best > limit {
		t.Errorf("fast path with provenance and coverage disabled costs %.2f ns/instr; baseline %.2f +%.0f%% allows %.2f",
			best, base.FastNsPerInstr, base.TolerancePct, limit)
	}

	// Informational: what enabling provenance costs on the same workload.
	prov := measureNsPerInstr(t, true, false, true)
	fmt.Printf("provenance bench guard: disabled %.2f ns/instr (limit %.2f), enabled %.2f ns/instr (%.1f%% overhead)\n",
		best, limit, prov, 100*(prov-best)/best)
}

// fuzzBaseline is the BENCH_fuzz.json schema: the fuzzing farm's recorded
// throughput and the floor the acceptance criterion demands.
type fuzzBaseline struct {
	ExecsPerSec    float64 `json:"execs_per_sec"`
	MinExecsPerSec float64 `json:"min_execs_per_sec"`
	Execs          int     `json:"execs"`
	Engine         string  `json:"engine"`
}

// TestFuzzBenchGuard enforces the fuzzing farm's cost contracts. Always
// on: the committed BENCH_fuzz.json must record throughput at or above
// its own floor (a re-record that dips below the acceptance bar fails
// here, not in review). Armed under PTBENCH_GUARD=1: attaching a
// coverage map — the per-fork hook the farm adds to every branch, jump,
// and jump-register retirement — must not regress the fast path beyond
// the same tolerance the provenance guard uses, and the detached hooks
// (two nil-checks per control transfer) must stay within it too, which
// the disabled-path guard above already measures with the hooks compiled
// in.
func TestFuzzBenchGuard(t *testing.T) {
	data, err := os.ReadFile("BENCH_fuzz.json")
	if err != nil {
		t.Fatalf("no recorded fuzz baseline: %v", err)
	}
	var base fuzzBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("bad fuzz baseline: %v", err)
	}
	if base.MinExecsPerSec <= 0 || base.Execs <= 0 {
		t.Fatalf("fuzz baseline not recorded: %+v", base)
	}
	if base.ExecsPerSec < base.MinExecsPerSec {
		t.Errorf("recorded fuzzing throughput %.0f execs/sec is below the %.0f floor — re-record with `make bench-fuzz`",
			base.ExecsPerSec, base.MinExecsPerSec)
	}

	if os.Getenv("PTBENCH_GUARD") != "1" {
		t.Skip("set PTBENCH_GUARD=1 to arm the coverage-cost guard")
	}
	off := measureNsPerInstr(t, false, false, false)
	on := measureNsPerInstr(t, false, true, false)
	fmt.Printf("coverage bench guard: detached %.2f ns/instr, attached %.2f ns/instr (%.1f%% overhead)\n",
		off, on, 100*(on-off)/off)
	// Coverage-on runs on every fuzzing fork; hold it to a loose 2x of the
	// detached path so a hashing or hook regression is caught without the
	// guard flaking on scheduler noise.
	if on > 2*off {
		t.Errorf("coverage-attached fast path costs %.2f ns/instr, more than 2x the detached %.2f", on, off)
	}
}

// sbBaseline is the BENCH_superblock.json schema: the superblock tier's
// recorded hot-loop cost, the basic-block path on the same workload for
// contrast, and the absolute ceiling the acceptance criterion sets.
type sbBaseline struct {
	// SbNsPerInstr is the guarded number: the clean hot loop with the
	// superblock trace tier enabled (the default configuration).
	SbNsPerInstr float64 `json:"sb_ns_per_instr"`
	// NosbNsPerInstr is informational: the same workload on the
	// basic-block path alone, showing what trace fusion buys.
	NosbNsPerInstr float64 `json:"nosb_ns_per_instr"`
	// MaxNsPerInstr is the absolute ceiling — unlike the provenance
	// guard's relative tolerance, the superblock contract is a hard
	// budget: a clean hot loop must retire at or under this cost.
	MaxNsPerInstr float64 `json:"max_ns_per_instr"`
	// Host documents where the baseline was taken.
	Host string `json:"host"`
}

// sbMaxNsPerInstr is the ceiling written into a fresh baseline: the
// acceptance criterion's 6 ns/instr budget for a clean hot loop with
// superblocks on (the design target is 5).
const sbMaxNsPerInstr = 6.0

// TestSuperblockBenchGuard enforces the superblock tier's absolute cost
// budget. Always on: the committed BENCH_superblock.json must record a
// cost at or under its own ceiling, so a re-record that misses the
// budget fails in CI rather than in review. Armed under PTBENCH_GUARD=1
// (`make trace-check`): the hot loop is re-measured live, best of three,
// against the same ceiling. Under PTBENCH_RECORD=1 (`make
// bench-superblock`) it re-measures both configurations and rewrites the
// baseline instead of guarding.
func TestSuperblockBenchGuard(t *testing.T) {
	if os.Getenv("PTBENCH_RECORD") == "1" {
		sb := measureNsPerInstr(t, false, false, false)
		nosb := measureNsPerInstr(t, false, false, true)
		base := sbBaseline{
			SbNsPerInstr:   sb,
			NosbNsPerInstr: nosb,
			MaxNsPerInstr:  sbMaxNsPerInstr,
			Host:           fmt.Sprintf("%s/%s", runtime.GOOS, runtime.GOARCH),
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCH_superblock.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded: superblocks %.3f ns/instr, block path %.3f ns/instr (ceiling %.1f)", sb, nosb, sbMaxNsPerInstr)
		return
	}

	data, err := os.ReadFile("BENCH_superblock.json")
	if err != nil {
		t.Fatalf("no recorded baseline (run `make bench-superblock`): %v", err)
	}
	var base sbBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("bad baseline: %v", err)
	}
	if base.SbNsPerInstr <= 0 || base.MaxNsPerInstr <= 0 {
		t.Fatalf("baseline not recorded: %+v", base)
	}
	if base.SbNsPerInstr > base.MaxNsPerInstr {
		t.Errorf("recorded superblock cost %.3f ns/instr exceeds the %.1f ceiling — the tier no longer meets its budget",
			base.SbNsPerInstr, base.MaxNsPerInstr)
	}

	if os.Getenv("PTBENCH_GUARD") != "1" {
		t.Skip("set PTBENCH_GUARD=1 to arm the live superblock bench guard")
	}
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		got := measureNsPerInstr(t, false, false, false)
		if best == 0 || got < best {
			best = got
		}
		t.Logf("attempt %d: %.3f ns/instr (best %.3f, ceiling %.1f)", attempt+1, got, best, base.MaxNsPerInstr)
		if best <= base.MaxNsPerInstr {
			break
		}
	}
	if best > base.MaxNsPerInstr {
		t.Errorf("clean hot loop with superblocks costs %.3f ns/instr, over the %.1f ceiling", best, base.MaxNsPerInstr)
	}
	fmt.Printf("superblock bench guard: %.3f ns/instr live (recorded %.3f, block path %.3f, ceiling %.1f)\n",
		best, base.SbNsPerInstr, base.NosbNsPerInstr, base.MaxNsPerInstr)
}

// obsBaseline is the BENCH_obs.json schema: the recorded per-operation
// cost of the observability primitives the service puts on every session
// (span start/end pairs, flight-recorder ring writes), and the absolute
// ceilings the guard enforces. The guest fast path itself is covered by
// the provenance and superblock guards above — obs never touches the
// interpreter loops — so this guard holds the harness-side costs.
type obsBaseline struct {
	// SpanNsPerOp is one Tracer.Start + Span.End round trip (two
	// monotonic clock reads, one derived ID, one record append).
	SpanNsPerOp float64 `json:"span_ns_per_op"`
	// NoteNsPerOp is one Recorder.Note into a full ring (the always-on
	// benign-path cost of the flight recorder).
	NoteNsPerOp float64 `json:"note_ns_per_op"`
	// MaxSpanNs / MaxNoteNs are the absolute ceilings.
	MaxSpanNs float64 `json:"max_span_ns"`
	MaxNoteNs float64 `json:"max_note_ns"`
	// Host documents where the baseline was taken.
	Host string `json:"host"`
}

// Ceilings written into a fresh BENCH_obs.json: a span pair is a few
// hundred nanoseconds of clock reads and hashing, a ring note is a
// bounds check and a slot write. Sessions carry ~10 spans and a few
// hundred notes, so even the ceilings are microseconds per session.
const (
	obsMaxSpanNs = 2000.0
	obsMaxNoteNs = 1000.0
)

// measureObsNs returns the measured per-op cost of span pairs and ring
// notes.
func measureObsNs() (spanNs, noteNs float64) {
	sr := testing.Benchmark(func(b *testing.B) {
		tr := obs.NewTracer(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Start(nil, "bench").End()
		}
	})
	nr := testing.Benchmark(func(b *testing.B) {
		rec := obs.NewRecorder(256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Note("bench", "", nil, nil)
		}
	})
	return float64(sr.NsPerOp()), float64(nr.NsPerOp())
}

// TestObsBenchGuard enforces the observability layer's per-operation
// budget. Always on: the committed BENCH_obs.json must record costs at
// or under its own ceilings. Armed under PTBENCH_GUARD=1: the costs are
// re-measured live, best of three. Under PTBENCH_RECORD=1 (`make
// bench-obs`) it re-measures and rewrites the baseline instead.
func TestObsBenchGuard(t *testing.T) {
	if os.Getenv("PTBENCH_RECORD") == "1" {
		spanNs, noteNs := measureObsNs()
		base := obsBaseline{
			SpanNsPerOp: spanNs,
			NoteNsPerOp: noteNs,
			MaxSpanNs:   obsMaxSpanNs,
			MaxNoteNs:   obsMaxNoteNs,
			Host:        fmt.Sprintf("%s/%s", runtime.GOOS, runtime.GOARCH),
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCH_obs.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded: span %.1f ns/op (ceiling %.0f), note %.1f ns/op (ceiling %.0f)",
			spanNs, obsMaxSpanNs, noteNs, obsMaxNoteNs)
		return
	}

	data, err := os.ReadFile("BENCH_obs.json")
	if err != nil {
		t.Fatalf("no recorded baseline (run `make bench-obs`): %v", err)
	}
	var base obsBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("bad baseline: %v", err)
	}
	if base.SpanNsPerOp <= 0 || base.NoteNsPerOp <= 0 || base.MaxSpanNs <= 0 || base.MaxNoteNs <= 0 {
		t.Fatalf("baseline not recorded: %+v", base)
	}
	if base.SpanNsPerOp > base.MaxSpanNs {
		t.Errorf("recorded span cost %.1f ns/op exceeds the %.0f ceiling — re-record with `make bench-obs`",
			base.SpanNsPerOp, base.MaxSpanNs)
	}
	if base.NoteNsPerOp > base.MaxNoteNs {
		t.Errorf("recorded note cost %.1f ns/op exceeds the %.0f ceiling — re-record with `make bench-obs`",
			base.NoteNsPerOp, base.MaxNoteNs)
	}

	if os.Getenv("PTBENCH_GUARD") != "1" {
		t.Skip("set PTBENCH_GUARD=1 to arm the live obs bench guard")
	}
	bestSpan, bestNote := 0.0, 0.0
	for attempt := 0; attempt < 3; attempt++ {
		spanNs, noteNs := measureObsNs()
		if bestSpan == 0 || spanNs < bestSpan {
			bestSpan = spanNs
		}
		if bestNote == 0 || noteNs < bestNote {
			bestNote = noteNs
		}
		t.Logf("attempt %d: span %.1f note %.1f (best %.1f/%.1f)", attempt+1, spanNs, noteNs, bestSpan, bestNote)
		if bestSpan <= base.MaxSpanNs && bestNote <= base.MaxNoteNs {
			break
		}
	}
	if bestSpan > base.MaxSpanNs {
		t.Errorf("span pair costs %.1f ns/op, over the %.0f ceiling", bestSpan, base.MaxSpanNs)
	}
	if bestNote > base.MaxNoteNs {
		t.Errorf("ring note costs %.1f ns/op, over the %.0f ceiling", bestNote, base.MaxNoteNs)
	}
	fmt.Printf("obs bench guard: span %.1f ns/op (ceiling %.0f), note %.1f ns/op (ceiling %.0f)\n",
		bestSpan, base.MaxSpanNs, bestNote, base.MaxNoteNs)
}
