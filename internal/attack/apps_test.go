package attack

import (
	"strings"
	"testing"

	"repro/internal/progs"
	"repro/internal/taint"
)

// TestWuFTPDNonControl reproduces the paper's Table 2: the SITE EXEC
// format string targeting the uid word is detected at the %n store in
// vfprintf with the uid address in the dereferenced register.
func TestWuFTPDNonControl(t *testing.T) {
	out, err := WuFTPDNonControl(Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("not detected: %v", out)
	}
	if out.Alert.Kind != taint.AlertStoreAddress {
		t.Errorf("kind = %v, want store address", out.Alert.Kind)
	}
	if !strings.Contains(out.Alert.Symbol, "vfprintf") {
		t.Errorf("alert not in vfprintf: %q", out.Alert.Symbol)
	}

	// The baseline misses it entirely; the full escalation lands:
	// uid corrupted, backdoor /etc/passwd uploaded.
	out, err = WuFTPDNonControl(Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected {
		t.Fatalf("baseline detected a non-control attack: %v", out)
	}
	if !out.Compromised {
		t.Fatalf("compromise did not land: %v", out)
	}
	if !strings.Contains(out.Evidence, "backdoor /etc/passwd uploaded") {
		t.Errorf("evidence = %q", out.Evidence)
	}
}

func TestWuFTPDControl(t *testing.T) {
	for _, policy := range []taint.Policy{taint.PolicyPointerTaintedness, taint.PolicyControlDataOnly} {
		out, err := WuFTPDControl(Options{Policy: policy})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if !out.Detected || out.Alert.Kind != taint.AlertJumpTarget {
			t.Errorf("%v: %v", policy, out)
		}
	}
	out, err := WuFTPDControl(Options{Policy: taint.PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected || !out.Compromised {
		t.Errorf("unprotected control hijack: %v", out)
	}
}

func TestNullHTTPDNonControl(t *testing.T) {
	out, err := NullHTTPDNonControl(Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("not detected: %v", out)
	}
	if !strings.Contains(out.Alert.Symbol, "unlink") && !strings.Contains(out.Alert.Symbol, "free") {
		t.Errorf("alert not in the allocator: %q", out.Alert.Symbol)
	}

	out, err = NullHTTPDNonControl(Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected {
		t.Fatalf("baseline detected a non-control attack: %v", out)
	}
	if !out.Compromised || !strings.Contains(out.Evidence, "/bin/sh") {
		t.Fatalf("CGI escalation did not land: %v", out)
	}
}

func TestNullHTTPDControl(t *testing.T) {
	out, err := NullHTTPDControl(Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	// Pointer taintedness stops the attack inside free(), before any
	// control data is touched.
	if !out.Detected {
		t.Fatalf("not detected: %v", out)
	}
	if out.Alert.Kind == taint.AlertJumpTarget {
		t.Errorf("pointer-taint policy should fire before the jump: %v", out.Alert.Kind)
	}

	// The baseline lets the writes happen but catches the tainted return.
	out, err = NullHTTPDControl(Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected || out.Alert.Kind != taint.AlertJumpTarget {
		t.Fatalf("baseline missed the tainted return: %v", out)
	}

	out, err = NullHTTPDControl(Options{Policy: taint.PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected || !out.Compromised {
		t.Errorf("unprotected hijack: %v", out)
	}
}

func TestGHTTPDNonControl(t *testing.T) {
	out, err := GHTTPDNonControl(Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("not detected: %v", out)
	}
	// Paper: "stops the attack when the tainted URL pointer is
	// dereferenced in a load-byte instruction (i.e., LB)".
	if out.Alert.Kind != taint.AlertLoadAddress {
		t.Errorf("kind = %v, want load address", out.Alert.Kind)
	}
	if out.Alert.Instr.Op.Name() != "lb" && out.Alert.Instr.Op.Name() != "lbu" {
		t.Errorf("instr = %v, want lb", out.Alert.Instr.Op)
	}

	out, err = GHTTPDNonControl(Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected {
		t.Fatalf("baseline detected a non-control attack: %v", out)
	}
	if !out.Compromised || !strings.Contains(out.Evidence, "/bin/sh") {
		t.Fatalf("traversal bypass did not land: %v", out)
	}
}

func TestGHTTPDControl(t *testing.T) {
	// The overflow path to the return address passes through the url
	// pointer, so pointer taintedness fires at the first tainted
	// dereference (a load through the clobbered url) — earlier than the
	// jump. The control-data baseline fires at the tainted JR.
	out, err := GHTTPDControl(Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("pointer taintedness missed the smash: %v", out)
	}
	out, err = GHTTPDControl(Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected || out.Alert.Kind != taint.AlertJumpTarget {
		t.Errorf("baseline: %v", out)
	}
	out, err = GHTTPDControl(Options{Policy: taint.PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected || !out.Compromised {
		t.Errorf("unprotected hijack: %v", out)
	}
}

func TestTracerouteDoubleFree(t *testing.T) {
	out, err := TracerouteDoubleFree(Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("not detected: %v", out)
	}
	// The dereferenced word is built from the second -g argument's bytes
	// ("5.6." = 0x2e362e35).
	if out.Alert.Value != 0x2E362E35 {
		t.Errorf("value = %#x, want 0x2e362e35", out.Alert.Value)
	}
	if !strings.Contains(out.Alert.Symbol, "unlink") && !strings.Contains(out.Alert.Symbol, "free") {
		t.Errorf("alert not in the allocator: %q", out.Alert.Symbol)
	}

	out, err = TracerouteDoubleFree(Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected {
		t.Fatalf("baseline detected the double free: %v", out)
	}
	if !out.Compromised {
		t.Errorf("corruption did not land: %v", out)
	}
}

// TestBenignTrafficNoAlerts runs ordinary sessions against every server
// under the paper's policy: no false positives.
func TestBenignTrafficNoAlerts(t *testing.T) {
	// FTP: full login + commands.
	m, conn, err := ftpLogin(Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatalf("ftp benign: %v", err)
	}
	if out, err := conn.cmd("CWD /home/user1"); err != nil || !strings.Contains(out, "250") {
		t.Errorf("CWD: %q %v", out, err)
	}
	if out, err := conn.cmd("SITE EXEC hello"); err != nil || !strings.Contains(out, "200") {
		t.Errorf("SITE EXEC: %q %v", out, err)
	}
	if out, err := conn.cmd("QUIT"); err == nil && !strings.Contains(out, "221") {
		t.Errorf("QUIT: %q", out)
	}
	_ = m

	// HTTP servers: benign GET/POST.
	p, _ := mustProg("nullhttpd")
	hm, err := Boot(p, Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	if err := hm.RunToBlock(); err != nil {
		t.Fatal(err)
	}
	ep, err := hm.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hm.Transact(ep, "GET /index.html HTTP/1.0\r\n\r\n")
	if err != nil || !strings.Contains(resp, "200 OK") {
		t.Errorf("nullhttpd GET: %q %v", resp, err)
	}
	resp, err = hm.Transact(ep, "GET /cgi/status HTTP/1.0\r\n\r\n")
	if err != nil || !strings.Contains(resp, "EXEC /cgi/status") {
		t.Errorf("nullhttpd CGI: %q %v", resp, err)
	}
	// A well-formed POST with a correct Content-Length.
	resp, err = hm.Transact(ep, "POST /form HTTP/1.0\r\nContent-Length: 11\r\n\r\nhello=world")
	if err != nil {
		t.Errorf("nullhttpd POST: %v", err)
	}
	_ = resp

	gp, _ := mustProg("ghttpd")
	gm, err := Boot(gp, Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		t.Fatal(err)
	}
	if err := gm.RunToBlock(); err != nil {
		t.Fatal(err)
	}
	gep, err := gm.Connect(8080)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = gm.Transact(gep, "GET /index.html HTTP/1.0\n")
	if err != nil || !strings.Contains(resp, "200 OK") {
		t.Errorf("ghttpd GET: %q %v", resp, err)
	}
	// The traversal policy fires on a benign-plumbing level too.
	gm2, _ := Boot(gp, Options{Policy: taint.PolicyPointerTaintedness})
	if err := gm2.RunToBlock(); err != nil {
		t.Fatal(err)
	}
	gep2, _ := gm2.Connect(8080)
	resp, err = gm2.Transact(gep2, "GET /../etc/passwd HTTP/1.0\n")
	if err != nil || !strings.Contains(resp, "403") {
		t.Errorf("ghttpd traversal check: %q %v", resp, err)
	}

	// traceroute with ordinary arguments.
	tp, _ := mustProg("traceroute")
	tm, err := Boot(tp, Options{
		Policy: taint.PolicyPointerTaintedness,
		Args:   []string{"-g", "10.0.0.1", "example.org"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Run(); err != nil {
		t.Errorf("traceroute benign run: %v", err)
	}
	if !strings.Contains(tm.Kernel.Stdout(), "1 gateway") {
		t.Errorf("traceroute output: %q", tm.Kernel.Stdout())
	}
}

// TestPatchedWuFTPDResistsAttacks closes the vulnerability lifecycle: the
// daemon with the upstream fix shapes (format string as data, bounded CWD
// copy) shrugs off the exact payloads that compromise the vulnerable
// build — even with detection off.
func TestPatchedWuFTPDResistsAttacks(t *testing.T) {
	payload, uidAddr, err := CalibrateWuFTPDFormat()
	if err != nil {
		t.Fatal(err)
	}
	p, ok := progs.ByName("wuftpd-patched")
	if !ok {
		t.Fatal("patched corpus entry missing")
	}
	m, err := Boot(p, Options{Policy: taint.PolicyOff, Budget: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunToBlock(); err != nil {
		t.Fatal(err)
	}
	ep, err := m.Connect(21)
	if err != nil {
		t.Fatal(err)
	}
	conn := ftpConn{m: m, ep: ep}
	if out, _ := conn.cmd(""); !strings.Contains(out, "220") {
		t.Fatalf("greeting: %q", out)
	}
	conn.cmd("USER user1")
	conn.cmd("PASS xxxxxxx")
	// The format-string payload is echoed as inert text.
	resp, runErr := conn.cmd(payload)
	if runErr != nil {
		t.Fatalf("patched server died: %v", runErr)
	}
	if !strings.Contains(resp, "%n") {
		t.Errorf("payload not echoed verbatim: %q", resp)
	}
	// uid is intact on the patched build.
	patchedUID, _, err := m.Mem.LoadWord(m.Image.Symbols["uid"])
	if err != nil || patchedUID != 1000 {
		t.Errorf("patched uid = %d (%v), want 1000", patchedUID, err)
	}
	_ = uidAddr
	// The CWD smash payload is truncated harmlessly.
	resp, runErr = conn.cmd("CWD " + strings.Repeat("a", 68) + wordBytes(0x61616160))
	if runErr != nil {
		t.Fatalf("patched CWD crashed: %v", runErr)
	}
	if !strings.Contains(resp, "250") {
		t.Errorf("CWD reply: %q", resp)
	}
	if out, _ := conn.cmd("QUIT"); !strings.Contains(out, "221") {
		t.Errorf("QUIT: %q", out)
	}
}
