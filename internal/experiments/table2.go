package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/taint"
)

// Table2Result is the reproduced WU-FTPD session of the paper's Table 2.
type Table2Result struct {
	Transcript []attack.TranscriptEntry
	Outcome    attack.Outcome
}

// Table2 replays the attack session.
func Table2() (Table2Result, error) {
	transcript, out, err := attack.WuFTPDTable2(attack.Options{})
	if err != nil {
		return Table2Result{}, err
	}
	return Table2Result{Transcript: transcript, Outcome: out}, nil
}

// Format renders the two-column session the paper prints.
func (r Table2Result) Format() string {
	var b strings.Builder
	for _, e := range r.Transcript {
		who := map[string]string{
			"server": "FTP Server",
			"client": "FTP Client",
			"alert":  "Alert",
		}[e.Who]
		fmt.Fprintf(&b, "%-10s  %s\n", who, e.Text)
	}
	return b.String()
}

// MatrixRow is one cell group of the §5.1.2 coverage matrix: one attack
// evaluated under both policies.
type MatrixRow struct {
	Application string
	Attack      string
	Class       string // "control-data" or "non-control-data"
	PT          attack.Outcome
	CD          attack.Outcome
}

// MatrixResult is the full coverage matrix.
type MatrixResult struct {
	Rows []MatrixRow
}

// matrixScenario pairs a scenario with its labels.
type matrixScenario struct {
	app, name, class string
	run              func(attack.Options) (attack.Outcome, error)
}

func matrixScenarios() []matrixScenario {
	return []matrixScenario{
		{"wu-ftpd", "SITE EXEC format string -> uid", "non-control-data", attack.WuFTPDNonControl},
		{"wu-ftpd", "CWD stack smash -> return address", "control-data", attack.WuFTPDControl},
		{"null-httpd", "heap unlink -> CGI config", "non-control-data", attack.NullHTTPDNonControl},
		{"null-httpd", "heap unlink -> return address", "control-data", attack.NullHTTPDControl},
		{"ghttpd", "log overflow -> URL pointer", "non-control-data", attack.GHTTPDNonControl},
		{"ghttpd", "log overflow -> return address", "control-data", attack.GHTTPDControl},
		{"traceroute", "double free via -g args", "non-control-data", attack.TracerouteDoubleFree},
	}
}

// Matrix evaluates every application attack under pointer taintedness and
// the control-data-only baseline.
func Matrix() (MatrixResult, error) { return MatrixWorkers(1) }

// MatrixWorkers is the §5.1.2 sweep with the scenario×policy cells fanned
// out across workers goroutines; rows stay in scenario order.
func MatrixWorkers(workers int) (MatrixResult, error) {
	var res MatrixResult
	scs := matrixScenarios()
	// Each (scenario, policy) cell is an independent victim run; fan out
	// over the flattened cell list, then fold pairs back into rows.
	cells, _, err := campaign.ForEachGuarded(2*len(scs), workers, campaign.GuardOpts{}, func(i, _ int) (attack.Outcome, error) {
		sc := scs[i/2]
		policy, policyName := taint.PolicyPointerTaintedness, "pointer-taintedness"
		if i%2 == 1 {
			policy, policyName = taint.PolicyControlDataOnly, "control-data-only"
		}
		out, err := sc.run(attack.Options{Policy: policy})
		if err != nil {
			return out, fmt.Errorf("%s/%s under %s: %w", sc.app, sc.name, policyName, err)
		}
		return out, nil
	})
	if err != nil {
		return res, err
	}
	for i, sc := range scs {
		res.Rows = append(res.Rows, MatrixRow{
			Application: sc.app, Attack: sc.name, Class: sc.class,
			PT: cells[2*i], CD: cells[2*i+1],
		})
	}
	return res, nil
}

// Format renders the matrix.
func (r MatrixResult) Format() string {
	t := &table{header: []string{"application", "attack", "class", "pointer-taintedness", "control-data-only"}}
	cell := func(o attack.Outcome) string {
		if o.Detected {
			return "DETECTED (" + o.Alert.Kind.String() + ")"
		}
		if o.Compromised {
			return "missed: compromised"
		}
		if o.Crashed {
			return "missed: victim crashed"
		}
		return "missed"
	}
	for _, row := range r.Rows {
		t.add(row.Application, row.Attack, row.Class, cell(row.PT), cell(row.CD))
	}
	return t.String() +
		"\nPointer taintedness detects every attack; the control-flow-integrity baseline\n" +
		"detects only those that taint control data (Section 5.1.2).\n"
}
