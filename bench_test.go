// Package repro_test benchmarks the reproduction of every table and
// figure in the paper's evaluation, plus the simulator's own hot paths.
// Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN / BenchmarkFigN regenerates the corresponding
// artifact once per iteration; the custom metrics report the
// paper-relevant quantities (alerts, instructions simulated, detection
// latency in retired instructions).
package repro_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/cc"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/progs"
	"repro/internal/rtl"
	"repro/internal/taint"
)

// BenchmarkFig1CERTBreakdown tallies the advisory dataset (Figure 1).
func BenchmarkFig1CERTBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1()
		if r.Total != 107 {
			b.Fatal("dataset corrupted")
		}
	}
	b.ReportMetric(100*cert.MemoryCorruptionShare(), "memcorrupt-%")
}

// BenchmarkTable1Propagation exercises the Table 1 rule demonstrations.
func BenchmarkTable1Propagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1().Rows) != 5 {
			b.Fatal("rule rows missing")
		}
	}
}

// BenchmarkFig2SyntheticAttacks runs the three §5.1.1 detections.
func BenchmarkFig2SyntheticAttacks(b *testing.B) {
	scenarios := []struct {
		name string
		run  func(attack.Options) (attack.Outcome, error)
	}{
		{"Exp1Stack", attack.Exp1StackSmash},
		{"Exp2Heap", attack.Exp2HeapCorruption},
		{"Exp3FormatString", attack.Exp3FormatString},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			var lastInstrs uint64
			for i := 0; i < b.N; i++ {
				out, err := sc.run(attack.Options{Policy: taint.PolicyPointerTaintedness})
				if err != nil || !out.Detected {
					b.Fatalf("detection failed: %v %v", out, err)
				}
				lastInstrs = out.Alert.Instrs
			}
			b.ReportMetric(float64(lastInstrs), "instrs-to-detect")
		})
	}
}

// BenchmarkFig3PipelineDetection validates detector stage placement.
func BenchmarkFig3PipelineDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3()
		if err != nil || len(r.Rows) != 3 {
			b.Fatalf("fig3: %v", err)
		}
	}
}

// BenchmarkTable2WuFTPD replays the full FTP attack session.
func BenchmarkTable2WuFTPD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2()
		if err != nil || !r.Outcome.Detected {
			b.Fatalf("table2: %v", err)
		}
	}
}

// BenchmarkCoverageMatrix evaluates all seven application attacks under
// both policies (§5.1.2).
func BenchmarkCoverageMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Matrix()
		if err != nil || len(r.Rows) != 7 {
			b.Fatalf("matrix: %v", err)
		}
	}
}

// BenchmarkTable3FalsePositives runs each SPEC analogue under the paper's
// policy; the metric reports simulated instructions per wall second.
func BenchmarkTable3FalsePositives(b *testing.B) {
	for _, p := range progs.SpecSuite() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			input := progs.SpecInput(p.Name, 1)
			var instrs uint64
			for i := 0; i < b.N; i++ {
				m, err := attack.Boot(p, attack.Options{
					Policy: taint.PolicyPointerTaintedness,
					Files:  map[string][]byte{"/input": input},
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				if m.CPU.Stats().Alerts != 0 {
					b.Fatal("false positive")
				}
				instrs = m.CPU.Stats().Instructions
			}
			b.ReportMetric(float64(instrs), "guest-instrs")
			b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "guest-instrs/s")
		})
	}
}

// BenchmarkTable4FalseNegatives runs the three escape scenarios.
func BenchmarkTable4FalseNegatives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4()
		if err != nil || len(r.Rows) != 3 {
			b.Fatalf("table4: %v", err)
		}
	}
}

// BenchmarkOverheadTaintTracking measures the host-side cost of the taint
// datapath: the same workload with full pointer-taintedness tracking vs.
// tracking disabled (Section 5.4's software view — in hardware the cost
// is zero cycles, which the cycle counters assert in tests).
func BenchmarkOverheadTaintTracking(b *testing.B) {
	p, _ := progs.ByName("gzips")
	input := progs.SpecInput("gzips", 1)
	run := func(b *testing.B, policy taint.Policy, taintInputs bool) {
		for i := 0; i < b.N; i++ {
			m, err := attack.Boot(p, attack.Options{
				Policy: policy,
				Files:  map[string][]byte{"/input": input},
			})
			if err != nil {
				b.Fatal(err)
			}
			m.Kernel.TaintInputs = taintInputs
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("taint-on", func(b *testing.B) { run(b, taint.PolicyPointerTaintedness, true) })
	b.Run("taint-off", func(b *testing.B) { run(b, taint.PolicyOff, false) })
}

// BenchmarkOverheadCacheHierarchy compares flat memory against the taint-
// carrying L1/L2 hierarchy.
func BenchmarkOverheadCacheHierarchy(b *testing.B) {
	p, _ := progs.ByName("mcfs")
	input := progs.SpecInput("mcfs", 1)
	run := func(b *testing.B, withCache bool) {
		for i := 0; i < b.N; i++ {
			m, err := attack.Boot(p, attack.Options{
				Policy:    taint.PolicyPointerTaintedness,
				Files:     map[string][]byte{"/input": input},
				WithCache: withCache,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("flat", func(b *testing.B) { run(b, false) })
	b.Run("l1l2", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblations runs the design-choice ablation suite.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablations()
		if err != nil || len(r.Rows) != 4 {
			b.Fatalf("ablations: %v", err)
		}
	}
}

// BenchmarkInterpreterHotLoop measures raw simulation speed on a tight
// arithmetic loop (no syscalls), the simulator's upper bound.
func BenchmarkInterpreterHotLoop(b *testing.B) {
	m, err := core.BuildC(core.Config{Budget: 1 << 40}, `
		int main() {
			int s = 0;
			for (int i = 0; i < 1000000; i++) s = s + i * 3 - (s >> 1);
			return s & 1;
		}
	`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m2, err := core.BuildC(core.Config{Budget: 1 << 40}, `
			int main() {
				int s = 0;
				for (int i = 0; i < 1000000; i++) s = s + i * 3 - (s >> 1);
				return s & 1;
			}
		`)
		if err != nil {
			b.Fatal(err)
		}
		runErr := m2.Run()
		var ee *core.ExitError
		if runErr != nil && !errors.As(runErr, &ee) {
			b.Fatal(runErr)
		}
		instrs = m2.Stats().Instructions
	}
	_ = m
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "guest-instrs/s")
}

// hotLoopSrc is the tight arithmetic workload shared by the interpreter
// benchmarks: ~7M guest instructions, no syscalls in the loop.
const hotLoopSrc = `
	int main() {
		int s = 0;
		for (int i = 0; i < 1000000; i++) s = s + i * 3 - (s >> 1);
		return s & 1;
	}
`

// BenchmarkStepFastPath compares the predecoded basic-block fast path
// against the reference one-instruction interpreter on the hot loop; the
// ns/instr metric is the headline per-instruction simulation cost.
func BenchmarkStepFastPath(b *testing.B) {
	run := func(b *testing.B, reference bool) {
		var total uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m, err := core.BuildC(core.Config{
				Budget: 1 << 40, Reference: reference,
			}, hotLoopSrc)
			if err != nil {
				b.Fatal(err)
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
	}
	b.Run("fast", func(b *testing.B) { run(b, false) })
	b.Run("reference", func(b *testing.B) { run(b, true) })
}

// BenchmarkSPECStepFastPath runs each SPEC analogue under both
// interpreters, pairing every workload with its reference baseline so the
// speedup is visible per program (ns/instr metric again).
func BenchmarkSPECStepFastPath(b *testing.B) {
	modes := []struct {
		name      string
		reference bool
	}{
		{"fast", false},
		{"reference", true},
	}
	for _, p := range progs.SpecSuite() {
		p := p
		input := progs.SpecInput(p.Name, 1)
		for _, mode := range modes {
			mode := mode
			b.Run(p.Name+"/"+mode.name, func(b *testing.B) {
				var total uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m, err := attack.Boot(p, attack.Options{
						Policy:    taint.PolicyPointerTaintedness,
						Files:     map[string][]byte{"/input": input},
						Reference: mode.reference,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := m.Run(); err != nil {
						b.Fatal(err)
					}
					total += m.CPU.Stats().Instructions
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/instr")
			})
		}
	}
}

// BenchmarkCompiler measures ptcc end-to-end build speed (compile +
// assemble + link against the runtime) on the largest corpus program,
// bypassing the corpus image cache.
func BenchmarkCompiler(b *testing.B) {
	p, ok := progs.ByName("wuftpd")
	if !ok {
		b.Fatal("corpus missing")
	}
	for i := 0; i < b.N; i++ {
		if _, err := rtl.Build(cc.Unit{Name: "wuftpd.c", Src: p.Source}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisassembler rounds out the toolchain benches.
func BenchmarkDisassembler(b *testing.B) {
	in := isa.Instruction{Op: isa.OpSW, Rt: isa.RegT0, Rs: isa.RegSP, Imm: -4}
	for i := 0; i < b.N; i++ {
		if !strings.Contains(isa.Disassemble(in, 0x400000), "sw") {
			b.Fatal("bad disassembly")
		}
	}
}
