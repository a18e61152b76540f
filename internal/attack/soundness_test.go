package attack

import (
	"errors"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/progs"
	"repro/internal/taint"
)

// analyzeImage runs the static analyzer with the same (default)
// propagation configuration the dynamic machines in this file use.
func analyzeImage(t *testing.T, im *asm.Image) *analysis.Result {
	t.Helper()
	res, err := analysis.Analyze(im, taint.Propagator{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

// assertAlertSound is the soundness oracle: a dynamic tainted-dereference
// alert must land on an instruction the static analyzer flagged
// MayDereferenceTainted. ProvablyClean there means the analyzer issued a
// wrong proof; VerdictNone means it never reached code that demonstrably
// executes. Either way the static may-alert set failed to cover a real
// alert.
func assertAlertSound(t *testing.T, name string, res *analysis.Result, alert *cpu.SecurityAlert) {
	t.Helper()
	if alert == nil {
		return
	}
	v := res.VerdictAt(alert.PC)
	if v != analysis.MayDereferenceTainted {
		t.Errorf("%s: dynamic alert at %#x (%s) has static verdict %v; the may-alert set must cover every real alert",
			name, alert.PC, alert.Error(), v)
	}
}

// TestSoundnessScenarios replays every attack scenario under the
// pointer-taintedness policy and checks each raised alert against the
// static may-alert set.
func TestSoundnessScenarios(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			m, err := s.Prepare(taint.PolicyPointerTaintedness)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			out, err := s.Session(m)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			if !out.Detected {
				t.Fatalf("scenario not detected: %s", out)
			}
			assertAlertSound(t, s.Name, analyzeImage(t, m.Image), out.Alert)
		})
	}
}

// TestSoundnessAndLintOnExploitedPaths runs the four real-app attacks of
// Section 5.1 and requires, for each, that the dynamic alert on the
// exploited path (the %n store, the unlink write, the stack strcpy, the
// double free) lands on a MayDereferenceTainted instruction — i.e.
// ptlint flags the exploited path statically.
func TestSoundnessAndLintOnExploitedPaths(t *testing.T) {
	cases := []struct {
		name string
		prog string
		run  func(Options) (Outcome, error)
	}{
		{"wuftpd-format-percent-n", "wuftpd", WuFTPDNonControl},
		{"wuftpd-control", "wuftpd", WuFTPDControl},
		{"nullhttpd-heap-unlink", "nullhttpd", NullHTTPDNonControl},
		{"nullhttpd-control", "nullhttpd", NullHTTPDControl},
		{"ghttpd-stack-strcpy", "ghttpd", GHTTPDNonControl},
		{"ghttpd-control", "ghttpd", GHTTPDControl},
		{"traceroute-double-free", "traceroute", TracerouteDoubleFree},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.run(Options{Policy: taint.PolicyPointerTaintedness})
			if err != nil {
				t.Fatalf("attack: %v", err)
			}
			if !out.Detected {
				t.Fatalf("attack not detected: %s", out)
			}
			p, ok := progs.ByName(tc.prog)
			if !ok {
				t.Fatalf("program %q missing", tc.prog)
			}
			im, err := p.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res := analyzeImage(t, im)
			assertAlertSound(t, tc.name, res, out.Alert)
			if chain := res.ChainAt(out.Alert.PC); chain == "" {
				t.Errorf("%s: no reaching-taint chain at the alert pc %#x", tc.name, out.Alert.PC)
			}
		})
	}
}

// TestSoundnessCorpus boots every corpus program benignly on the fast
// path (static facts installed) under the pointer policy; any alert a
// run raises must lie in the static may-alert set, and runs must agree
// with the facts-free reference on alert presence.
func TestSoundnessCorpus(t *testing.T) {
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m, err := Boot(p, Options{
				Policy: taint.PolicyPointerTaintedness,
				Stdin:  []byte("lint probe input\n"),
				Budget: 30_000_000,
			})
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			err = m.Run()
			var alert *cpu.SecurityAlert
			var blocked *kernel.BlockedError
			var exit *cpu.ExitError
			switch {
			case err == nil, errors.As(err, &blocked), errors.As(err, &exit):
				return // benign outcome
			case errors.As(err, &alert):
				res := analyzeImage(t, m.Image)
				assertAlertSound(t, p.Name, res, alert)
			default:
				// Faults (e.g. budget) are fine for this test's purpose.
			}
		})
	}
}
