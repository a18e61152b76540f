package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// The traced runs time each layer from outside, so they replay the
// attacker side of a session through the public Machine, Kernel and
// netsim calls instead of calling the opaque Scenario.Session or
// InputTarget.Play. The oracles hold each replay to the library's own
// result: identical fingerprints, classes and counters.

// ftpClient is the attacker's FTP connection to a forked wu-ftpd, with
// every call timed under parent.
type ftpClient struct {
	tr     *obs.Tracer
	parent *obs.Span
	m      *attack.Machine
	ep     *netsim.Endpoint
}

// exchange sends one command line (none for "") and runs the guest until
// it blocks for more input or stops; a block is not an error.
func (c ftpClient) exchange(line string) (string, error) {
	io := c.tr.Start(c.parent, "netsim.io")
	if line != "" {
		c.ep.SendString(line + "\r\n")
	}
	io.End()
	run := c.tr.Start(c.parent, "cpu.run")
	err := c.m.Run()
	run.End()
	io = c.tr.Start(c.parent, "netsim.io")
	resp := c.ep.RecvString()
	io.End()
	var blocked *kernel.BlockedError
	if errors.As(err, &blocked) {
		err = nil
	}
	return resp, err
}

// ftpLogin connects to port 21 and authenticates with the dialogue the
// wu-ftpd scenario uses.
func ftpLogin(tr *obs.Tracer, parent *obs.Span, m *attack.Machine) (ftpClient, error) {
	io := tr.Start(parent, "netsim.io")
	ep, err := m.Connect(21)
	io.End()
	if err != nil {
		return ftpClient{}, err
	}
	c := ftpClient{tr: tr, parent: parent, m: m, ep: ep}
	for _, step := range []struct{ line, want string }{
		{"", "220"}, {"USER user1", "331"}, {"PASS xxxxxxx", "230"},
	} {
		resp, err := c.exchange(step.line)
		if err != nil || !strings.Contains(resp, step.want) {
			return ftpClient{}, fmt.Errorf("ftp %q: got %q, err %v", step.line, resp, err)
		}
	}
	return c, nil
}

// ftpCommand logs in, sends one command line and classifies the run: the
// shape of both the wu-ftpd scenario session and the FTP fuzz target.
func ftpCommand(tr *obs.Tracer, parent *obs.Span, m *attack.Machine, line string) (attack.Outcome, error) {
	c, err := ftpLogin(tr, parent, m)
	if err != nil {
		return attack.Outcome{}, err
	}
	_, runErr := c.exchange(line)
	return classify(tr, parent, runErr), nil
}

// wuftpdSession is the wu-ftpd scenario's session: log in, send the
// calibrated SITE EXEC payload, and when nothing alerted check whether %n
// reached the uid word.
func wuftpdSession(tr *obs.Tracer, parent *obs.Span, m *attack.Machine, payload string, uidAddr uint32) (attack.Outcome, error) {
	out, err := ftpCommand(tr, parent, m, payload)
	if err == nil && !out.Detected && !out.Crashed {
		if uid, _, lerr := m.Mem.LoadWord(uidAddr); lerr == nil && uid < 100 {
			out.Compromised = true
			out.Evidence = fmt.Sprintf("uid overwritten to %d via %%n at %#x", uid, uidAddr)
		}
	}
	return out, err
}

// stdinRun delivers input as the guest's stdin, runs it to its terminal
// state and classifies it: the stdin fuzz targets' play.
func stdinRun(tr *obs.Tracer, parent *obs.Span, m *attack.Machine, input []byte) attack.Outcome {
	sp := tr.Start(parent, "kernel.stdin")
	m.Kernel.SetStdin(input)
	sp.End()
	return runClassify(tr, parent, m)
}

// runClassify runs the guest to its terminal state and classifies it.
func runClassify(tr *obs.Tracer, parent *obs.Span, m *attack.Machine) attack.Outcome {
	run := tr.Start(parent, "cpu.run")
	err := m.Run()
	run.End()
	return classify(tr, parent, err)
}

func classify(tr *obs.Tracer, parent *obs.Span, err error) attack.Outcome {
	sp := tr.Start(parent, "attack.classify")
	out := attack.Classify(err)
	sp.End()
	return out
}

// play replays one fuzz input the way the named input target delivers it.
func play(tr *obs.Tracer, parent *obs.Span, target string, m *attack.Machine, input []byte) (attack.Outcome, error) {
	if target == "wuftpd-site-exec" {
		return ftpCommand(tr, parent, m, string(input))
	}
	return stdinRun(tr, parent, m, input), nil
}
