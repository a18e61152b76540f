package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/progs"
	"repro/internal/taint"
)

// Table3Row is one SPEC-analogue false-positive run.
type Table3Row struct {
	Program      string
	ProgramSize  int // image bytes (text+data)
	InputBytes   int
	Instructions uint64
	Alerts       uint64
	Output       string
}

// Table3Result is the Table 3 reproduction.
type Table3Result struct {
	Scale int
	Rows  []Table3Row
	// Totals across the suite, matching the paper's Total column.
	TotalProgramSize  int
	TotalInputBytes   int
	TotalInstructions uint64
	TotalAlerts       uint64
}

// Table3 runs the six SPEC analogues at the given input scale under
// pointer taintedness and counts alerts (the claim: zero).
func Table3(scale int) (Table3Result, error) {
	res := Table3Result{Scale: scale}
	for _, p := range progs.SpecSuite() {
		row, err := runSpecOnce(p, scale, taint.PolicyPointerTaintedness, taint.Propagator{})
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
		res.TotalProgramSize += row.ProgramSize
		res.TotalInputBytes += row.InputBytes
		res.TotalInstructions += row.Instructions
		res.TotalAlerts += row.Alerts
	}
	return res, nil
}

func runSpecOnce(p progs.Program, scale int, policy taint.Policy, prop taint.Propagator) (Table3Row, error) {
	input := progs.SpecInput(p.Name, scale)
	m, err := attack.Boot(p, attack.Options{
		Policy: policy,
		Prop:   prop,
		Files:  map[string][]byte{"/input": input},
		Budget: 2_000_000_000,
	})
	if err != nil {
		return Table3Row{}, err
	}
	size := 0
	for _, seg := range m.Image.Segments {
		size += len(seg.Data)
	}
	runErr := m.Run()
	row := Table3Row{
		Program:      p.Name,
		ProgramSize:  size,
		InputBytes:   len(input),
		Instructions: m.CPU.Stats().Instructions,
		Alerts:       m.CPU.Stats().Alerts,
		Output:       strings.TrimSpace(m.Kernel.Stdout()),
	}
	if runErr != nil {
		return row, fmt.Errorf("%s: %w", p.Name, runErr)
	}
	return row, nil
}

// Format renders the Table 3 layout.
func (r Table3Result) Format() string {
	t := &table{header: []string{"", "program size", "input bytes", "instructions", "alerts"}}
	for _, row := range r.Rows {
		t.add(strings.ToUpper(row.Program),
			fmt.Sprintf("%dKB", (row.ProgramSize+1023)/1024),
			fmt.Sprintf("%d", row.InputBytes),
			fmt.Sprintf("%.1fM", float64(row.Instructions)/1e6),
			fmt.Sprintf("%d", row.Alerts))
	}
	t.add("TOTAL",
		fmt.Sprintf("%dKB", (r.TotalProgramSize+1023)/1024),
		fmt.Sprintf("%d", r.TotalInputBytes),
		fmt.Sprintf("%.1fM", float64(r.TotalInstructions)/1e6),
		fmt.Sprintf("%d", r.TotalAlerts))
	note := fmt.Sprintf("\ninput scale %d; not a single alert was raised (paper: 0 alerts over 15,139M instructions)\n", r.Scale)
	return t.String() + note
}

// Table4Row is one false-negative scenario run.
type Table4Row struct {
	Scenario string
	Outcome  attack.Outcome
}

// Table4Result is the Table 4 reproduction: attacks that escape detection
// under the paper's policy (and every other).
type Table4Result struct {
	Rows []Table4Row
}

// Table4 runs the three false-negative scenarios under pointer
// taintedness.
func Table4() (Table4Result, error) {
	var res Table4Result
	for _, sc := range []struct {
		name string
		run  func(attack.Options) (attack.Outcome, error)
	}{
		{"(A) integer overflow past flawed bounds check", attack.FNIntegerOverflowAttack},
		{"(B) buffer overflow of adjacent auth flag", attack.FNAuthFlagAttack},
		{"(C) format string %x information leak", attack.FNInfoLeakAttack},
	} {
		out, err := sc.run(attack.Options{Policy: taint.PolicyPointerTaintedness})
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Table4Row{Scenario: sc.name, Outcome: out})
	}
	return res, nil
}

// Format renders the false-negative table.
func (r Table4Result) Format() string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s\n  %v\n", row.Scenario, row.Outcome)
	}
	b.WriteString("\nno pointer is tainted in these attacks; the architecture (by design) does not alert (Section 5.3)\n")
	return b.String()
}
