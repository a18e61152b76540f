package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/taint"
)

// Fig2Row is one synthetic attack detection (paper §5.1.1).
type Fig2Row struct {
	Program   string
	Attack    string
	Input     string
	Outcome   attack.Outcome
	PaperNote string
}

// Fig2Result collects the three Figure 2 detections.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2 runs the three synthetic attacks under pointer taintedness.
func Fig2() (Fig2Result, error) { return Fig2Workers(1) }

// Fig2Workers is the §5.1.1 sweep with the independent attacks fanned out
// across workers goroutines; rows stay in paper order.
func Fig2Workers(workers int) (Fig2Result, error) {
	specs := []struct {
		run       func(attack.Options) (attack.Outcome, error)
		program   string
		attack    string
		input     string
		paperNote string
	}{
		{attack.Exp1StackSmash, "exp1", "stack buffer overflow",
			`24 x "a"`, "paper: alert at JR $31, tainted 0x61616161"},
		{attack.Exp2HeapCorruption, "exp2", "heap corruption (free-chunk links)",
			"24-byte overflow over the adjacent free chunk", "paper: alert at LW inside free()"},
		{attack.Exp3FormatString, "exp3", "format string %n",
			`"abcd" + %x walk + %n over a socket`, "paper: alert at SW in vfprintf, tainted 0x64636261"},
	}
	var res Fig2Result
	rows, _, err := campaign.ForEachGuarded(len(specs), workers, campaign.GuardOpts{}, func(i, _ int) (Fig2Row, error) {
		out, err := specs[i].run(attack.Options{Policy: taint.PolicyPointerTaintedness})
		if err != nil {
			return Fig2Row{}, fmt.Errorf("%s: %w", specs[i].program, err)
		}
		return Fig2Row{
			Program:   specs[i].program,
			Attack:    specs[i].attack,
			Input:     specs[i].input,
			Outcome:   out,
			PaperNote: specs[i].paperNote,
		}, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// Format renders the detection table.
func (r Fig2Result) Format() string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s (%s)\n  input:  %s\n  result: %v\n  %s\n\n",
			row.Program, row.Attack, row.Input, row.Outcome, row.PaperNote)
	}
	return b.String()
}

// Fig3Result demonstrates the Figure 3 detector placement: which pipeline
// stage flags each attack class, and that the exception is raised at
// retirement.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3Row is one detector placement observation.
type Fig3Row struct {
	Attack     string
	Instr      string
	Stage      string
	Cycle      uint64
	Instrs     uint64
	Dereferenc string
}

// Fig3 reruns the JR-class and store-class attacks, recording the stage
// annotations the pipeline attaches to the alerts.
func Fig3() (Fig3Result, error) {
	var res Fig3Result
	jr, err := attack.Exp1StackSmash(attack.Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		return res, err
	}
	st, err := attack.Exp3FormatString(attack.Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		return res, err
	}
	ld, err := attack.Exp2HeapCorruption(attack.Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		return res, err
	}
	for _, c := range []struct {
		name string
		out  attack.Outcome
	}{
		{"control transfer (exp1)", jr},
		{"store dereference (exp3)", st},
		{"load dereference (exp2)", ld},
	} {
		if c.out.Alert == nil {
			return res, fmt.Errorf("%s: no alert", c.name)
		}
		res.Rows = append(res.Rows, Fig3Row{
			Attack:     c.name,
			Instr:      c.out.Alert.Instr.Op.Name(),
			Stage:      string(c.out.Alert.Stage),
			Cycle:      c.out.Alert.Cycle,
			Instrs:     c.out.Alert.Instrs,
			Dereferenc: fmt.Sprintf("%v=%#x", c.out.Alert.Reg, c.out.Alert.Value),
		})
	}
	return res, nil
}

// Format renders the placement table.
func (r Fig3Result) Format() string {
	t := &table{header: []string{"attack", "instruction", "detector stage", "retire cycle", "instrs retired", "tainted register"}}
	for _, row := range r.Rows {
		t.add(row.Attack, row.Instr, row.Stage,
			fmt.Sprintf("%d", row.Cycle), fmt.Sprintf("%d", row.Instrs), row.Dereferenc)
	}
	return t.String() + "\nJR detector after ID/EX; load/store detector after EX/MEM; exception at retirement (Section 4.3).\n"
}
