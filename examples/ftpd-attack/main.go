// ftpd-attack replays the paper's Table 2 end to end: the WU-FTPD SITE
// EXEC format-string attack that overwrites the logged-in user's ID — a
// non-control-data attack invisible to control-flow-integrity defenses.
// Under pointer taintedness the %n store through the attacker's address
// trips the detector inside vfprintf; with the control-data-only baseline
// the escalation completes and a backdoor /etc/passwd entry is uploaded.
package main

import (
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/taint"
)

func main() {
	fmt.Println("=== WU-FTPD SITE EXEC format string (paper Table 2) ===")
	fmt.Println()

	transcript, outcome, err := attack.WuFTPDTable2(attack.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range transcript {
		fmt.Printf("%-10s  %s\n", e.Who, e.Text)
	}
	fmt.Println()
	if !outcome.Detected {
		log.Fatalf("expected detection, got %v", outcome)
	}

	fmt.Println("=== the same attack against the control-data-only baseline ===")
	fmt.Println()
	baseline, err := attack.WuFTPDNonControl(attack.Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(baseline)
	if !baseline.Compromised {
		log.Fatalf("expected the baseline to miss the attack")
	}
}
