package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/progs"
	"repro/internal/taint"
)

// AblationRow is one design-choice ablation observation.
type AblationRow struct {
	Ablation    string
	Observation string
}

// AblationResult collects the design-choice ablations DESIGN.md calls out.
type AblationResult struct {
	Rows []AblationRow
}

// Ablations runs the rule ablations:
//
//   - compare-untaint off: validated table indices stay tainted and the
//     benign SPEC analogues false-positive;
//   - word granularity: per-word taint over-taints but the benign
//     workloads still pass (validation untaints whole words anyway) —
//     the cost is precision of alert values, shown on exp1;
//   - branch untaint on: equality branches also launder taint, which
//     breaks detection of the GHTTPD URL-pointer attack (the corrupted
//     pointer passes a comparison on the request path);
//   - the Section 5.3 annotation extension on the Table 4(B) victim;
//   - compare untaint without the home write-through: five of the six
//     SPEC analogues false-positive (WriteThroughAblation).
func Ablations() (AblationResult, error) {
	var res AblationResult

	// 1. Compare-untaint disabled -> false positives on validated lookups.
	p, _ := progs.ByName("bzip2s")
	m, err := attack.Boot(p, attack.Options{
		Policy: taint.PolicyPointerTaintedness,
		Prop:   taint.Propagator{DisableCompareUntaint: true},
		Files:  map[string][]byte{"/input": progs.SpecInput("bzip2s", 1)},
	})
	if err != nil {
		return res, err
	}
	runErr := m.Run()
	obs := "no alert (unexpected)"
	if runErr != nil {
		obs = fmt.Sprintf("benign run now alerts: %v", runErr)
	}
	res.Rows = append(res.Rows, AblationRow{
		Ablation:    "compare-untaint rule disabled",
		Observation: obs,
	})

	// 2. Word-granularity taint: detection still works; the alert fires
	// with all four lanes tainted even when fewer bytes were attacker-
	// controlled.
	exp1, _ := progs.ByName("exp1")
	m2, err := attack.Boot(exp1, attack.Options{
		Policy: taint.PolicyPointerTaintedness,
		Prop:   taint.Propagator{WordGranularity: true},
		Stdin:  []byte(strings.Repeat("a", 24) + "\n"),
	})
	if err != nil {
		return res, err
	}
	out := "no alert (unexpected)"
	if err := m2.Run(); err != nil {
		out = fmt.Sprintf("still detected: %v", err)
	}
	res.Rows = append(res.Rows, AblationRow{
		Ablation:    "word-granularity taint",
		Observation: out,
	})

	// 3. Branch untaint enabled: benign workloads still clean, but the
	// rule is dangerous in principle (equality tests would trust data);
	// demonstrated on the heap attack, where the free-list nullness
	// checks (beq against zero) now launder the corrupted links.
	heap, err := attack.Exp2HeapCorruption(attack.Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		return res, err
	}
	heapAblated, err := exp2WithBranchUntaint()
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Ablation: "branch untaint enabled (equality tests treated as validation)",
		Observation: fmt.Sprintf("heap attack: default=%s, ablated=%s",
			shortOutcome(heap), shortOutcome(heapAblated)),
	})

	// 4. The Section 5.3 annotation extension: the Table 4(B) false
	// negative becomes a detection once the auth flag is annotated.
	annotated, err := attack.AnnotatedAuthFlagAttack(attack.Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		return res, err
	}
	plain, err := attack.FNAuthFlagAttack(attack.Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Ablation: "Section 5.3 annotation extension on the Table 4(B) victim",
		Observation: fmt.Sprintf("plain=%s, annotated=%s (%s)",
			shortOutcome(plain), shortOutcome(annotated), annotated.Evidence),
	})

	// 5. Compare untaint without the home write-through: the registers
	// are still untainted, but the memory they were loaded from is not,
	// so code that reloads a validated value (ptcc keeps locals in the
	// frame) dereferences it tainted.
	writeThrough, err := WriteThroughAblation()
	if err != nil {
		return res, err
	}
	var obs5 []string
	for _, w := range writeThrough {
		off := "no alert"
		if w.Alerts > 0 {
			off = fmt.Sprintf("alert after %d instructions", w.AlertAt)
		}
		obs5 = append(obs5, fmt.Sprintf("%s: %d tainted home bytes untainted; without write-through %s",
			w.Program, w.HomeUntaints, off))
	}
	res.Rows = append(res.Rows, AblationRow{
		Ablation:    "compare untaint without write-through (the SPEC analogues)",
		Observation: strings.Join(obs5, "\n  "),
	})
	return res, nil
}

// WriteThroughRow is one SPEC analogue under the write-through ablation.
type WriteThroughRow struct {
	Program string
	// HomeUntaints counts the tainted home bytes compare untaints wrote
	// through to, with the write-through on.
	HomeUntaints uint64
	// Alerts and AlertAt (its retired-instruction count) are the run's
	// alerts with the write-through off.
	Alerts  uint64
	AlertAt uint64
}

// WriteThroughAblation runs every SPEC analogue on its seeded input twice:
// with the compare-untaint write-through, counting the tainted home bytes
// it untaints, and without it, recording the alerts that follow.
func WriteThroughAblation() ([]WriteThroughRow, error) {
	var rows []WriteThroughRow
	for _, p := range progs.SpecSuite() {
		row := WriteThroughRow{Program: p.Name}
		for _, off := range []bool{false, true} {
			m, err := attack.Boot(p, attack.Options{
				Policy: taint.PolicyPointerTaintedness,
				Prop:   taint.Propagator{DisableHomeWriteThrough: off},
				Files:  map[string][]byte{"/input": progs.SpecInput(p.Name, 1)},
			})
			if err != nil {
				return nil, err
			}
			runErr := m.Run()
			if !off {
				if runErr != nil {
					return nil, fmt.Errorf("%s with write-through: %w", p.Name, runErr)
				}
				row.HomeUntaints = m.CPU.HomeUntaints()
				continue
			}
			row.Alerts = m.CPU.Stats().Alerts
			var a *cpu.SecurityAlert
			if errors.As(runErr, &a) {
				row.AlertAt = a.Instrs
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func exp2WithBranchUntaint() (attack.Outcome, error) {
	p, _ := progs.ByName("exp2")
	m, err := attack.Boot(p, attack.Options{
		Policy: taint.PolicyPointerTaintedness,
		Prop:   taint.Propagator{EnableBranchUntaint: true},
		Stdin:  []byte("aaaaaaaaaaaa" + "bbbb" + "dddd" + "hhhh" + "\n"),
	})
	if err != nil {
		return attack.Outcome{}, err
	}
	runErr := m.Run()
	var out attack.Outcome
	if runErr != nil {
		// Reuse the public classification by matching on error text.
		out.Evidence = runErr.Error()
		if strings.Contains(runErr.Error(), "security alert") {
			out.Detected = true
		} else {
			out.Crashed = true
		}
	}
	return out, nil
}

func shortOutcome(o attack.Outcome) string {
	switch {
	case o.Detected:
		return "detected"
	case o.Crashed:
		return "crashed"
	case o.Compromised:
		return "compromised"
	}
	return "no effect"
}

// Format renders the ablation findings.
func (r AblationResult) Format() string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s\n  %s\n\n", row.Ablation, row.Observation)
	}
	return b.String()
}
