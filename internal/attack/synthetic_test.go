package attack

import (
	"strings"
	"testing"

	"repro/internal/taint"
)

func TestExp1Detection(t *testing.T) {
	// Paper §5.1.1: alert at the return (JR) with tainted 0x61616161.
	out, err := Exp1StackSmash(Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("not detected: %v", out)
	}
	if out.Alert.Kind != taint.AlertJumpTarget {
		t.Errorf("kind = %v, want jump target", out.Alert.Kind)
	}
	if out.Alert.Value != 0x61616161 {
		t.Errorf("value = %#x, want 0x61616161", out.Alert.Value)
	}
	if out.Alert.Symbol != "exp1" {
		t.Errorf("symbol = %q, want exp1", out.Alert.Symbol)
	}

	// The control-data baseline also catches a tainted return address.
	out, err = Exp1StackSmash(Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Errorf("control-data baseline missed the stack smash: %v", out)
	}

	// With detection off the hijack lands.
	out, err = Exp1StackSmash(Options{Policy: taint.PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected || !out.Compromised {
		t.Errorf("unprotected run: %v", out)
	}
}

func TestExp2Detection(t *testing.T) {
	out, err := Exp2HeapCorruption(Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("not detected: %v", out)
	}
	if out.Alert.Kind != taint.AlertLoadAddress && out.Alert.Kind != taint.AlertStoreAddress {
		t.Errorf("kind = %v, want load/store address", out.Alert.Kind)
	}
	if out.Alert.Value != 0x64646464 {
		t.Errorf("value = %#x, want 0x64646464 (attacker fd word)", out.Alert.Value)
	}
	if !strings.Contains(out.Alert.Symbol, "unlink") && !strings.Contains(out.Alert.Symbol, "free") {
		t.Errorf("alert not attributed to the allocator: %q", out.Alert.Symbol)
	}

	// The baseline sees no control data: the arbitrary write lands.
	out, err = Exp2HeapCorruption(Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected {
		t.Errorf("control-data baseline alerted on a pure data attack: %v", out)
	}
	if !out.Compromised {
		t.Errorf("heap write primitive did not land: %v", out)
	}
}

func TestExp3Detection(t *testing.T) {
	out, err := Exp3FormatString(Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("not detected: %v", out)
	}
	if out.Alert.Kind != taint.AlertStoreAddress {
		t.Errorf("kind = %v, want store address (the %%n write)", out.Alert.Kind)
	}
	if out.Alert.Value != 0x64636261 {
		t.Errorf("value = %#x, want 0x64636261 (\"abcd\")", out.Alert.Value)
	}
	if !strings.Contains(out.Alert.Symbol, "vfprintf") {
		t.Errorf("alert not inside vfprintf: %q", out.Alert.Symbol)
	}

	// Baseline: the store is to data (no control transfer): not detected.
	out, err = Exp3FormatString(Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected {
		t.Errorf("control-data baseline alerted: %v", out)
	}
}

func TestFalseNegativesEscapeEveryPolicy(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(Options) (Outcome, error)
	}{
		{"integer-overflow", FNIntegerOverflowAttack},
		{"auth-flag", FNAuthFlagAttack},
		{"info-leak", FNInfoLeakAttack},
	}
	policies := []taint.Policy{
		taint.PolicyPointerTaintedness,
		taint.PolicyControlDataOnly,
		taint.PolicyOff,
	}
	for _, sc := range scenarios {
		for _, policy := range policies {
			out, err := sc.run(Options{Policy: policy})
			if err != nil {
				t.Fatalf("%s under %v: %v", sc.name, policy, err)
			}
			if out.Detected {
				t.Errorf("%s under %v: unexpectedly detected (%v)", sc.name, policy, out)
			}
			if !out.Compromised {
				t.Errorf("%s under %v: attack did not land (%v)", sc.name, policy, out)
			}
		}
	}
}

// TestAnnotationExtensionDefeatsAuthFlagFN verifies the paper's Section
// 5.3 extension: annotating the auth flag turns the Table 4(B) false
// negative into a detection, under every policy (the watch is orthogonal
// to the dereference detectors).
func TestAnnotationExtensionDefeatsAuthFlagFN(t *testing.T) {
	for _, policy := range []taint.Policy{
		taint.PolicyPointerTaintedness,
		taint.PolicyControlDataOnly,
		taint.PolicyOff,
	} {
		out, err := AnnotatedAuthFlagAttack(Options{Policy: policy})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if !out.Detected {
			t.Errorf("%v: annotation missed the overflow: %v", policy, out)
		}
		if !strings.Contains(out.Evidence, "auth-flag") {
			t.Errorf("%v: evidence %q does not name the region", policy, out.Evidence)
		}
	}
	// Benign use of the annotated program still works: a correct password
	// grants access without tripping the watch.
	p, err := mustProg("fn-authflag-annotated")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Boot(p, Options{
		Policy: taint.PolicyPointerTaintedness,
		Stdin:  []byte("s3cr3t\nhello\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("benign annotated run: %v", err)
	}
	if !strings.Contains(m.Kernel.Stdout(), "access granted") {
		t.Errorf("stdout = %q", m.Kernel.Stdout())
	}
}

// TestEnvOverflow covers the environment taint source: env strings are
// tainted at startup, so the env-driven stack smash is detected at JR.
func TestEnvOverflow(t *testing.T) {
	out, err := EnvOverflowAttack(Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected || out.Alert.Value != 0x65656564 {
		t.Errorf("env overflow: %v", out)
	}
	// Benign env values flow through untouched.
	p, _ := mustProg("envutil")
	m, err := Boot(p, Options{
		Policy: taint.PolicyPointerTaintedness,
		Env:    []string{"TERM=vt100"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("benign env run: %v", err)
	}
	if !strings.Contains(m.Kernel.Stdout(), "terminal: vt100") {
		t.Errorf("stdout = %q", m.Kernel.Stdout())
	}
}

// TestDetectionThroughCacheHierarchy re-runs the Fig. 2 attacks with the
// L1/L2 hierarchy interposed: taint bits riding cache lines must preserve
// every detection bit-for-bit (paper Section 4.1).
func TestDetectionThroughCacheHierarchy(t *testing.T) {
	p, _ := mustProg("exp1")
	m, err := Boot(p, Options{
		Policy:    taint.PolicyPointerTaintedness,
		Stdin:     []byte(strings.Repeat("a", 24) + "\n"),
		WithCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := Classify(m.Run())
	if !out.Detected || out.Alert.Value != 0x61616161 {
		t.Errorf("exp1 with caches: %v", out)
	}
	l1, _ := m.Caches.L1Stats(), m.Caches.L2Stats()
	if l1.Hits == 0 {
		t.Error("cache saw no traffic")
	}

	p2, _ := mustProg("exp2")
	m2, err := Boot(p2, Options{
		Policy:    taint.PolicyPointerTaintedness,
		Stdin:     []byte(exp2Payload + "\n"),
		WithCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out = Classify(m2.Run())
	if !out.Detected || out.Alert.Value != 0x64646464 {
		t.Errorf("exp2 with caches: %v", out)
	}
}
