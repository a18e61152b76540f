// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the reproduction substrate: Figure 1 (CERT
// breakdown), Figure 2 / §5.1.1 (synthetic attack detections), Figure 3
// (detector pipeline placement), Table 1 (propagation rules), Table 2
// (the WU-FTPD session transcript), the §5.1.2 coverage matrix, Table 3
// (SPEC false positives), Table 4 (false-negative scenarios), and the
// §5.4 overhead estimates. Each experiment returns structured rows plus a
// formatted text rendering, and is also exposed as a benchmark in the
// repository root's bench_test.go.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
)

// Report is a rendered experiment.
type Report struct {
	ID    string // e.g. "fig1", "table3"
	Title string
	Text  string
}

// All runs every experiment in paper order. Expensive but complete; the
// individual functions are available for selective runs. A failing
// experiment does not abort the suite: All returns every report that
// succeeded (still in paper order) together with all failures joined —
// a parallel run surfaces every independent failure, not just the first.
func All() ([]Report, error) { return AllWorkers(1) }

// AllWorkers is All with the independent experiments fanned out across
// workers goroutines (the report order stays fixed regardless).
func AllWorkers(workers int) ([]Report, error) {
	runs := []struct {
		id, title string
		run       func() (string, error)
	}{
		{"fig1", "Figure 1: CERT advisory breakdown 2000-2003", func() (string, error) { return Fig1().Format(), nil }},
		{"table1", "Table 1: taintedness propagation by ALU instructions", func() (string, error) { return Table1().Format(), nil }},
		{"fig2", "Figure 2 / Section 5.1.1: synthetic attack detection", formatErr(Fig2)},
		{"fig3", "Figure 3: detector placement in the pipeline", formatErr(Fig3)},
		{"table2", "Table 2: attacking WU-FTPD on the proposed architecture", formatErr(Table2)},
		{"matrix", "Section 5.1.2: security coverage matrix", formatErr(Matrix)},
		{"table3", "Table 3: false positive rate on SPEC analogues", formatErr(func() (fmter, error) { return Table3(1) })},
		{"table4", "Table 4: false negative scenarios", formatErr(Table4)},
		{"overhead", "Section 5.4: architectural and software overhead", formatErr(func() (fmter, error) { return Overhead(1) })},
		{"ablation", "Design-choice ablations", formatErr(Ablations)},
	}
	texts, _, err := campaign.ForEachGuarded(len(runs), workers, campaign.GuardOpts{}, func(i, _ int) (string, error) {
		text, err := runs[i].run()
		if err != nil {
			return "", fmt.Errorf("%s: %w", runs[i].id, err)
		}
		return text, nil
	})
	out := make([]Report, 0, len(runs))
	for i, r := range runs {
		if texts[i] == "" {
			continue // this experiment failed; its error is in err
		}
		out = append(out, Report{ID: r.id, Title: r.title, Text: texts[i]})
	}
	return out, err
}

// fmter is anything with a Format method.
type fmter interface{ Format() string }

func formatErr[T fmter](run func() (T, error)) func() (string, error) {
	return func() (string, error) {
		v, err := run()
		if err != nil {
			return "", err
		}
		return v.Format(), nil
	}
}

// table renders columns with simple alignment.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
