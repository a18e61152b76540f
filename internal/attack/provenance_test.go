package attack

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/taint"
)

// detectionScenarios lists every scenario that must detect under the
// pointer-taintedness policy — the paper's synthetic experiments, the
// four real-application attacks (wu-ftpd %n, null-httpd dlmalloc unlink,
// ghttpd stack strcpy, traceroute double free), their control-hijack
// variants, and the boot-time env overflow.
var detectionScenarios = []struct {
	name string
	run  func(Options) (Outcome, error)
	// src is the origin channel the chain must terminate at: "read" or
	// "recv" for syscall inputs (fd >= 0), "env" for the boot-time source.
	src string
}{
	{"exp1", Exp1StackSmash, "read"},
	{"exp2", Exp2HeapCorruption, "read"},
	{"exp3", Exp3FormatString, "recv"},
	{"wuftpd-noncontrol", WuFTPDNonControl, "recv"},
	{"wuftpd-control", WuFTPDControl, "recv"},
	{"nullhttpd-noncontrol", NullHTTPDNonControl, "recv"},
	{"nullhttpd-control", NullHTTPDControl, "recv"},
	{"ghttpd-noncontrol", GHTTPDNonControl, "recv"},
	{"ghttpd-control", GHTTPDControl, "recv"},
	{"traceroute", TracerouteDoubleFree, "argv"},
	{"env-overflow", EnvOverflowAttack, "env"},
}

// TestProvenanceChainsTerminateAtInputs is the tentpole acceptance check:
// with provenance on, every detection's alert must carry a chain whose
// origins name concrete input bytes — the source syscall, the guest fd
// (for read/recv), the stream offset, and a nonzero byte count.
func TestProvenanceChainsTerminateAtInputs(t *testing.T) {
	for _, sc := range detectionScenarios {
		out, err := sc.run(Options{Policy: taint.PolicyPointerTaintedness, Provenance: true})
		if err != nil {
			t.Errorf("%s: %v", sc.name, err)
			continue
		}
		if !out.Detected || out.Alert == nil {
			t.Errorf("%s: not detected: %v", sc.name, out)
			continue
		}
		p := out.Alert.Provenance
		if p == nil {
			t.Errorf("%s: alert has no provenance chain", sc.name)
			continue
		}
		if len(p.Origins) == 0 {
			t.Errorf("%s: chain has no origins:\n%s", sc.name, p)
			continue
		}
		if p.BirthPC == 0 {
			t.Errorf("%s: chain has no birth pc", sc.name)
		}
		sawSrc := false
		for _, o := range p.Origins {
			if o.Syscall == "" || o.Len == 0 {
				t.Errorf("%s: origin missing source or length: %+v", sc.name, o)
			}
			if o.Syscall == sc.src {
				sawSrc = true
				if (sc.src == "read" || sc.src == "recv") && o.FD < 0 {
					t.Errorf("%s: %s origin without a descriptor: %+v", sc.name, sc.src, o)
				}
			}
		}
		if !sawSrc {
			t.Errorf("%s: no %s origin in chain:\n%s", sc.name, sc.src, p)
		}
	}
}

// TestProvenanceChainsEngineIdentical: the reference interpreter and the
// predecoded fast path must reconstruct byte-identical chains — label
// numbering, birth site, and origins all agree, because tainted work
// takes the same execution path in both engines.
func TestProvenanceChainsEngineIdentical(t *testing.T) {
	chains := func(reference bool) map[string]string {
		out := make(map[string]string)
		for _, sc := range detectionScenarios {
			o, err := sc.run(Options{Policy: taint.PolicyPointerTaintedness, Provenance: true, Reference: reference})
			if err != nil {
				t.Fatalf("%s (reference=%v): %v", sc.name, reference, err)
			}
			if o.Alert == nil || o.Alert.Provenance == nil {
				t.Fatalf("%s (reference=%v): no chain", sc.name, reference)
			}
			out[sc.name] = o.Alert.Provenance.String()
		}
		return out
	}
	fast := chains(false)
	ref := chains(true)
	for name, f := range fast {
		if r := ref[name]; f != r {
			t.Errorf("%s: chains differ between engines:\n--- fast\n%s\n--- reference\n%s", name, f, r)
		}
	}
}

// TestProvenanceSurvivesFork: sessions replayed from copy-on-write forks
// of one snapshot must reconstruct the same chain as each other — the
// label table, register label shadow, and memory label shadow all travel
// through Snapshot/Fork intact.
func TestProvenanceSurvivesFork(t *testing.T) {
	for _, sc := range Scenarios() {
		m, err := sc.Boot(Options{Policy: taint.PolicyPointerTaintedness, Provenance: true})
		if err != nil {
			t.Fatalf("prepare %s: %v", sc.Name, err)
		}
		if !m.CPU.ProvEnabled() {
			t.Fatalf("%s: Options.Provenance did not reach the scenario boot", sc.Name)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %s: %v", sc.Name, err)
		}
		var chains []string
		for i := 0; i < 3; i++ {
			out, err := sc.Session(snap.Fork())
			if err != nil {
				t.Fatalf("%s fork %d: %v", sc.Name, i, err)
			}
			if out.Alert == nil || out.Alert.Provenance == nil {
				t.Fatalf("%s fork %d: no chain: %v", sc.Name, i, out)
			}
			chains = append(chains, out.Alert.Provenance.String())
		}
		for i := 1; i < len(chains); i++ {
			if chains[i] != chains[0] {
				t.Errorf("%s: fork %d chain diverged:\n%s\nvs\n%s", sc.Name, i, chains[i], chains[0])
			}
		}
		if !strings.Contains(chains[0], "<- ") {
			t.Errorf("%s: chain lacks origins:\n%s", sc.Name, chains[0])
		}
	}
}

// TestProvenancePerturbationFree: enabling provenance must change nothing
// observable about execution — same alert, same instruction/cycle
// counters, same memory fingerprint. (The only difference is the chain
// attached to the alert.)
func TestProvenancePerturbationFree(t *testing.T) {
	for _, sc := range Scenarios() {
		run := func(provOn bool) (Outcome, string, uint64) {
			var out Outcome
			var stats string
			var fp uint64
			m, err := sc.Boot(Options{Policy: taint.PolicyPointerTaintedness, Provenance: provOn})
			if err != nil {
				t.Fatalf("prepare %s: %v", sc.Name, err)
			}
			out, err = sc.Session(m)
			if err != nil {
				t.Fatalf("session %s: %v", sc.Name, err)
			}
			stats = fmt.Sprintf("%+v | %+v", m.CPU.Stats(), m.CPU.Pipe())
			fp = m.Mem.Fingerprint()
			return out, stats, fp
		}
		off, offStats, offFP := run(false)
		on, onStats, onFP := run(true)
		if off.Evidence != on.Evidence {
			t.Errorf("%s: alert text changed under provenance:\noff: %s\non:  %s", sc.Name, off.Evidence, on.Evidence)
		}
		if offStats != onStats {
			t.Errorf("%s: stats changed under provenance:\noff: %s\non:  %s", sc.Name, offStats, onStats)
		}
		if offFP != onFP {
			t.Errorf("%s: memory fingerprint changed under provenance", sc.Name)
		}
		if off.Alert != nil && off.Alert.Provenance != nil {
			t.Errorf("%s: provenance chain present with provenance off", sc.Name)
		}
		if on.Alert != nil && on.Alert.Provenance == nil {
			t.Errorf("%s: no provenance chain with provenance on", sc.Name)
		}
	}
}
