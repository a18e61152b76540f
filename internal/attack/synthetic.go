package attack

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/progs"
	"repro/internal/taint"
)

// mustProg fetches a corpus program by name; the names are compile-time
// constants, so a miss is a programming error surfaced as a clear failure.
func mustProg(name string) (progs.Program, error) {
	p, ok := progs.ByName(name)
	if !ok {
		return progs.Program{}, fmt.Errorf("program %q not in corpus", name)
	}
	return p, nil
}

// Exp1StackSmash is the paper's Section 5.1.1 stack overflow detection:
// 24 'a' characters into a 10-byte buffer taint the saved return address;
// the JR detector fires with the value 0x61616161.
func Exp1StackSmash(opts Options) (Outcome, error) {
	p, err := mustProg("exp1")
	if err != nil {
		return Outcome{}, err
	}
	opts.Stdin = []byte(strings.Repeat("a", 24) + "\n")
	m, err := Boot(p, opts)
	if err != nil {
		return Outcome{}, err
	}
	out := Classify(m.Run())
	if out.Crashed {
		// Without detection the tainted return address is consumed: the
		// control flow leaves the program — the hijack landed.
		out.Compromised = true
		out.Evidence = "control flow diverted to 0x61616161: " + out.Evidence
	}
	return out, nil
}

// exp2Payload overflows the 8-byte heap buffer across the adjacent free
// chunk: 12 filler bytes, a benign fake chunk header (in-use bit clear),
// then attacker fd/bk words. fd is 'dddd' (word-aligned as an address, so
// the corruption also lands when no detector stops it).
const exp2Payload = "aaaaaaaaaaaa" + "bbbb" + "dddd" + "hhhh"

// Exp2HeapCorruption is the Fig. 2 heap attack: free()'s unlink of the
// corrupted chunk dereferences the attacker's fd word.
func Exp2HeapCorruption(opts Options) (Outcome, error) {
	p, err := mustProg("exp2")
	if err != nil {
		return Outcome{}, err
	}
	opts.Stdin = []byte(exp2Payload + "\n")
	m, err := Boot(p, opts)
	if err != nil {
		return Outcome{}, err
	}
	out := Classify(m.Run())
	if !out.Detected && !out.Crashed {
		// The unlink write-primitive fired: the word at 0x6464646c
		// ('dddd'+8) was written through the attacker's fd (first with bk,
		// then again by the corrupted free-list insert).
		if w, _, err := m.Mem.LoadWord(0x6464646C); err == nil && w != 0 {
			out.Compromised = true
			out.Evidence = fmt.Sprintf("arbitrary write landed through attacker fd: [0x6464646c] = %#x", w)
		}
	}
	return out, nil
}

// Exp3FormatString is the Fig. 2 format-string attack over a socket: the
// %n directive dereferences the attacker's leading "abcd" (0x64636261).
// The number of %x directives needed to walk ap onto the marker depends on
// the victim's frame layout; CalibrateExp3 probes for it the way a real
// attacker probes a local copy of the binary.
func Exp3FormatString(opts Options) (Outcome, error) {
	payload, err := CalibrateExp3()
	if err != nil {
		return Outcome{}, err
	}
	return runExp3(opts, payload)
}

// CalibrateExp3 finds the %x walk distance that lands %n on the "abcd"
// marker, returning the full payload.
func CalibrateExp3() (string, error) {
	return calibrated("exp3", calibrateExp3)
}

func calibrateExp3() (string, error) {
	for k := 0; k <= 12; k++ {
		payload := "abcd" + strings.Repeat("%x", k) + "%n"
		out, err := runExp3(Options{Policy: taint.PolicyPointerTaintedness}, payload)
		if err != nil {
			return "", err
		}
		if out.Detected && out.Alert.Value == 0x64636261 {
			return payload, nil
		}
	}
	return "", fmt.Errorf("exp3 calibration failed: %%n never reached the marker")
}

func runExp3(opts Options, payload string) (Outcome, error) {
	p, err := mustProg("exp3")
	if err != nil {
		return Outcome{}, err
	}
	opts.Budget = 20_000_000
	m, err := Boot(p, opts)
	if err != nil {
		return Outcome{}, err
	}
	if err := m.RunToBlock(); err != nil {
		return Outcome{}, fmt.Errorf("exp3 server did not reach accept: %w", err)
	}
	ep, err := m.Connect(9000)
	if err != nil {
		return Outcome{}, err
	}
	_, runErr := m.Transact(ep, payload)
	if runErr == nil {
		// Guest is waiting in a follow-up recv or exited cleanly; close
		// and let it finish.
		ep.Close()
		runErr = m.Run()
	}
	out := Classify(runErr)
	if out.Crashed {
		out.Compromised = true
		out.Evidence = "format-string write reached 0x64636261: " + out.Evidence
	}
	return out, nil
}

// FNIntegerOverflowAttack is Table 4(A): input 4294967295 wraps to -1 and
// passes the flawed check; array[-1] silently overwrites the adjacent
// secret under every policy.
func FNIntegerOverflowAttack(opts Options) (Outcome, error) {
	p, err := mustProg("fn-intoverflow")
	if err != nil {
		return Outcome{}, err
	}
	opts.Stdin = []byte("4294967295\n")
	m, err := Boot(p, opts)
	if err != nil {
		return Outcome{}, err
	}
	out := Classify(m.Run())
	if out.Detected || out.Crashed {
		return out, nil
	}
	if strings.Contains(m.Kernel.Stdout(), "secret=1234") {
		out.Compromised = true
		out.Evidence = "out-of-bounds write: secret overwritten to 1234"
	}
	return out, nil
}

// FNAuthFlagAttack is Table 4(B): a wrong password followed by an overflow
// that flips the auth flag. No pointer is tainted; every policy grants
// access.
func FNAuthFlagAttack(opts Options) (Outcome, error) {
	p, err := mustProg("fn-authflag")
	if err != nil {
		return Outcome{}, err
	}
	for fill := 36; fill <= 72; fill += 4 {
		opts.Stdin = []byte("wrongpass\n" + strings.Repeat("a", fill) + "\n")
		m, err := Boot(p, opts)
		if err != nil {
			return Outcome{}, err
		}
		out := Classify(m.Run())
		if out.Detected || out.Crashed {
			return out, nil
		}
		if strings.Contains(m.Kernel.Stdout(), "access granted") {
			out.Compromised = true
			out.Evidence = fmt.Sprintf("auth flag overwritten (%d filler bytes): access granted without credentials", fill)
			return out, nil
		}
	}
	return Outcome{}, fmt.Errorf("auth-flag overflow never flipped the flag")
}

// FNInfoLeakAttack is Table 4(C): %x directives read the stack; the secret
// key appears in the output with no pointer dereference to detect.
func FNInfoLeakAttack(opts Options) (Outcome, error) {
	p, err := mustProg("fn-infoleak")
	if err != nil {
		return Outcome{}, err
	}
	for k := 1; k <= 40; k++ {
		opts.Stdin = []byte(strings.Repeat("%x.", k) + "\n")
		m, err := Boot(p, opts)
		if err != nil {
			return Outcome{}, err
		}
		out := Classify(m.Run())
		if out.Detected || out.Crashed {
			return out, nil
		}
		if strings.Contains(m.Kernel.Stdout(), "5ec2e7") {
			out.Compromised = true
			out.Evidence = fmt.Sprintf("secret key 0x5EC2E7 leaked with %d %%x directives", k)
			return out, nil
		}
	}
	return Outcome{}, fmt.Errorf("info leak never reached the secret")
}

// AnnotatedAuthFlagAttack replays the Table 4(B) overflow against the
// annotated victim (the paper's Section 5.3 extension): the overflow that
// silently flipped the flag is now caught when tainted bytes reach the
// annotated region.
func AnnotatedAuthFlagAttack(opts Options) (Outcome, error) {
	p, err := mustProg("fn-authflag-annotated")
	if err != nil {
		return Outcome{}, err
	}
	for fill := 36; fill <= 72; fill += 4 {
		opts.Stdin = []byte("wrongpass\n" + strings.Repeat("a", fill) + "\n")
		m, err := Boot(p, opts)
		if err != nil {
			return Outcome{}, err
		}
		runErr := m.Run()
		var viol *cpu.WatchViolation
		if errors.As(runErr, &viol) {
			return Outcome{
				Detected: true,
				Evidence: viol.Error(),
			}, nil
		}
		out := Classify(runErr)
		if out.Detected || out.Crashed {
			return out, nil
		}
		if strings.Contains(m.Kernel.Stdout(), "access granted") {
			out.Compromised = true
			out.Evidence = "annotation missed the overflow"
			return out, nil
		}
	}
	return Outcome{}, fmt.Errorf("annotated auth-flag attack never reached the flag")
}

// EnvOverflowAttack smashes a stack buffer through the TERM environment
// variable, exercising the paper's environment taint source: env strings
// are tainted at startup, so the clobbered return address trips the JR
// detector.
func EnvOverflowAttack(opts Options) (Outcome, error) {
	p, err := mustProg("envutil")
	if err != nil {
		return Outcome{}, err
	}
	// 16-byte buffer at $fp-24; filler to the saved ra, then an aligned
	// tainted jump target.
	for fill := 16; fill <= 48; fill += 4 {
		payload := strings.Repeat("e", fill) + wordBytes(0x65656564)
		opts.Env = []string{"PATH=/bin", "TERM=" + payload}
		opts.Budget = 20_000_000
		m, err := Boot(p, opts)
		if err != nil {
			return Outcome{}, err
		}
		out := Classify(m.Run())
		if out.Detected && out.Alert.Kind == taint.AlertJumpTarget && out.Alert.Value == 0x65656564 {
			return out, nil
		}
		// Wrong offset: the target word hit the saved frame pointer or
		// other state. Keep probing; under a policy that cannot detect,
		// report the jump-diversion crash when the offset is right.
		if out.Crashed && strings.Contains(out.Evidence, "0x65656564") {
			out.Compromised = true
			out.Evidence = "control flow diverted via environment data: " + out.Evidence
			return out, nil
		}
	}
	return Outcome{}, fmt.Errorf("env overflow never reached the return address")
}
