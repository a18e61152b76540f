package experiments

import (
	"strings"
	"testing"
)

func TestFig1(t *testing.T) {
	r := Fig1()
	if r.Total != 107 {
		t.Errorf("total = %d", r.Total)
	}
	if r.MemoryCorruptionShare < 0.66 || r.MemoryCorruptionShare > 0.68 {
		t.Errorf("share = %f", r.MemoryCorruptionShare)
	}
	text := r.Format()
	for _, want := range []string{"buffer overflow", "format string", "67%"} {
		if !strings.Contains(text, want) {
			t.Errorf("fig1 text missing %q:\n%s", want, text)
		}
	}
}

func TestTable1(t *testing.T) {
	r := Table1()
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (the five Table 1 rules)", len(r.Rows))
	}
	text := r.Format()
	for _, want := range []string{"ALU (default)", "shift", "and", "xor", "compare"} {
		if !strings.Contains(text, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestFig2(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Outcome.Detected {
			t.Errorf("%s not detected: %v", row.Program, row.Outcome)
		}
	}
	text := r.Format()
	if !strings.Contains(text, "0x61616161") || !strings.Contains(text, "0x64636261") {
		t.Errorf("fig2 text lacks the paper's tainted values:\n%s", text)
	}
}

func TestFig3(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]string{}
	for _, row := range r.Rows {
		stages[row.Attack] = row.Stage
		if row.Cycle == 0 || row.Instrs == 0 {
			t.Errorf("%s: empty pipeline accounting", row.Attack)
		}
	}
	if stages["control transfer (exp1)"] != "ID/EX" {
		t.Errorf("JR detector stage = %q, want ID/EX", stages["control transfer (exp1)"])
	}
	if stages["store dereference (exp3)"] != "EX/MEM" {
		t.Errorf("store detector stage = %q, want EX/MEM", stages["store dereference (exp3)"])
	}
	if stages["load dereference (exp2)"] != "EX/MEM" {
		t.Errorf("load detector stage = %q, want EX/MEM", stages["load dereference (exp2)"])
	}
}

func TestTable2(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Outcome.Detected {
		t.Fatalf("session not detected: %v", r.Outcome)
	}
	text := r.Format()
	for _, want := range []string{
		"220 FTP server (Version wu-2.6.0(60)",
		"USER user1",
		"331 Password required",
		"PASS xxxxxxx",
		"230 User user1 logged in.",
		"SITE EXEC",
		"%n",
		"Alert",
		"sw",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("table2 transcript missing %q:\n%s", want, text)
		}
	}
}

func TestMatrix(t *testing.T) {
	r, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The paper's headline: pointer taintedness detects everything.
		if !row.PT.Detected {
			t.Errorf("%s/%s: pointer taintedness missed", row.Application, row.Attack)
		}
		switch row.Class {
		case "non-control-data":
			if row.CD.Detected {
				t.Errorf("%s/%s: baseline detected a non-control attack", row.Application, row.Attack)
			}
		case "control-data":
			if !row.CD.Detected {
				t.Errorf("%s/%s: baseline missed a control attack", row.Application, row.Attack)
			}
		}
	}
}

func TestTable3ZeroFalsePositives(t *testing.T) {
	r, err := Table3(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.TotalAlerts != 0 {
		t.Errorf("alerts = %d, want 0", r.TotalAlerts)
	}
	if r.TotalInstructions < 5_000_000 {
		t.Errorf("total instructions = %d; suite too small", r.TotalInstructions)
	}
	if !strings.Contains(r.Format(), "not a single alert") {
		t.Error("format missing the headline claim")
	}
}

func TestTable4(t *testing.T) {
	r, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Outcome.Detected {
			t.Errorf("%s unexpectedly detected", row.Scenario)
		}
		if !row.Outcome.Compromised {
			t.Errorf("%s did not land", row.Scenario)
		}
	}
}

func TestOverhead(t *testing.T) {
	r, err := Overhead(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The taint datapath must not change cycle counts (Section 5.4).
		if row.Cycles != row.CyclesBaseline {
			t.Errorf("%s: cycles %d with taint vs %d without", row.Program, row.Cycles, row.CyclesBaseline)
		}
		// Roughly one tainting instruction per input byte. The paper's
		// 0.002%-0.2% band comes from billions of instructions per input
		// megabyte; our analogues run millions, so the ratio sits higher
		// but must stay marginal.
		if row.KernelOverhead <= 0 || row.KernelOverhead > 2.0 {
			t.Errorf("%s: kernel overhead %.4f%% out of band", row.Program, row.KernelOverhead)
		}
		if row.CPI < 1.0 {
			t.Errorf("%s: CPI %.3f < 1", row.Program, row.CPI)
		}
		if row.L1HitRate <= 0.5 {
			t.Errorf("%s: L1 hit rate %.3f suspiciously low", row.Program, row.L1HitRate)
		}
	}
}

func TestAblations(t *testing.T) {
	r, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Disabling the compare-untaint rule must cause benign false positives.
	if !strings.Contains(r.Rows[0].Observation, "alert") {
		t.Errorf("compare-untaint ablation: %s", r.Rows[0].Observation)
	}
	// Word granularity keeps detection.
	if !strings.Contains(r.Rows[1].Observation, "detected") {
		t.Errorf("word granularity ablation: %s", r.Rows[1].Observation)
	}
	// The annotation extension converts the Table 4(B) miss into a catch.
	if !strings.Contains(r.Rows[3].Observation, "annotated=detected") {
		t.Errorf("annotation ablation: %s", r.Rows[3].Observation)
	}
	// The compare-untaint write-through is load-bearing: with it, each
	// SPEC analogue untaints these home bytes; without it, all but gccs
	// false-positive.
	for _, want := range []string{
		"bzip2s: 3000 tainted home bytes untainted; without write-through alert after 8883 instructions",
		"gccs: 845 tainted home bytes untainted; without write-through no alert",
		"gzips: 608 tainted home bytes untainted; without write-through alert after 30958 instructions",
		"mcfs: 4604 tainted home bytes untainted; without write-through alert after 1080421 instructions",
		"parsers: 4000 tainted home bytes untainted; without write-through alert after 8737 instructions",
		"vprs: 617 tainted home bytes untainted; without write-through alert after 167516 instructions",
	} {
		if !strings.Contains(r.Rows[4].Observation, want) {
			t.Errorf("write-through ablation: want %q in\n%s", want, r.Rows[4].Observation)
		}
	}
}

// TestAll exercises the whole-evaluation runner end to end.
func TestAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation")
	}
	reports, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 10 {
		t.Fatalf("got %d reports", len(reports))
	}
	ids := []string{"fig1", "table1", "fig2", "fig3", "table2", "matrix",
		"table3", "table4", "overhead", "ablation"}
	for i, r := range reports {
		if r.ID != ids[i] {
			t.Errorf("report %d = %q, want %q", i, r.ID, ids[i])
		}
		if r.Text == "" || r.Title == "" {
			t.Errorf("report %q empty", r.ID)
		}
	}
}

func TestProfile(t *testing.T) {
	r, err := Profile(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Total == 0 || len(row.Top) == 0 {
			t.Errorf("%s: empty profile", row.Program)
		}
		// A realistic mix: memory traffic present in every workload.
		hasMem := false
		for _, s := range row.Top {
			if s.Op == "lw" || s.Op == "lb" || s.Op == "lbu" || s.Op == "sw" || s.Op == "sb" {
				hasMem = true
			}
		}
		if !hasMem {
			t.Errorf("%s: no memory opcodes in the top mix: %+v", row.Program, row.Top)
		}
	}
	if !strings.Contains(r.Format(), "bzip2s") {
		t.Error("format missing workloads")
	}
}
