package attack

import (
	"fmt"
	"strings"

	"repro/internal/taint"
)

// Scenario is a replayable attack session for campaign runs. Boot brings
// the victim up under the caller's options to its session-independent
// steady state — the snapshot point — and Session plays one complete
// attacker dialogue against a machine forked from that state, returning
// the classified outcome. A Session must be deterministic: identical
// forks must yield identical outcomes, which is what lets the campaign
// engine verify parallel runs against sequential ones byte for byte.
type Scenario struct {
	Name        string
	Description string
	// Boot overrides only the options the scenario needs for itself (a
	// tighter budget, say); everything else comes from opts.
	Boot    func(opts Options) (*Machine, error)
	Session func(m *Machine) (Outcome, error)
}

// Prepare boots the scenario under policy with default options.
func (s Scenario) Prepare(policy taint.Policy) (*Machine, error) {
	return s.Boot(Options{Policy: policy})
}

// Scenarios lists the replayable attack sessions, in stable order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "exp1-stack",
			Description: "Fig. 2 synthetic stack smashing via stdin (tainted return address)",
			Boot: func(opts Options) (*Machine, error) {
				p, err := mustProg("exp1")
				if err != nil {
					return nil, err
				}
				return Boot(p, opts)
			},
			Session: func(m *Machine) (Outcome, error) {
				m.Kernel.SetStdin([]byte(strings.Repeat("a", 24) + "\n"))
				out := Classify(m.Run())
				if out.Crashed {
					out.Compromised = true
					out.Evidence = "control flow diverted to 0x61616161: " + out.Evidence
				}
				return out, nil
			},
		},
		{
			Name:        "exp2-heap",
			Description: "Fig. 2 synthetic heap corruption (unlink of attacker fd/bk words)",
			Boot: func(opts Options) (*Machine, error) {
				p, err := mustProg("exp2")
				if err != nil {
					return nil, err
				}
				return Boot(p, opts)
			},
			Session: func(m *Machine) (Outcome, error) {
				m.Kernel.SetStdin([]byte(exp2Payload + "\n"))
				return Classify(m.Run()), nil
			},
		},
		{
			Name:        "wuftpd-site-exec",
			Description: "Table 2 wu-ftpd SITE EXEC format string; session = login + payload",
			Boot: func(opts Options) (*Machine, error) {
				// Warm the calibration cache before the snapshot so every
				// session replays the same precomputed payload.
				if _, _, err := CalibrateWuFTPDFormat(); err != nil {
					return nil, err
				}
				return bootFTP(opts)
			},
			Session: func(m *Machine) (Outcome, error) {
				payload, uidAddr, err := CalibrateWuFTPDFormat()
				if err != nil {
					return Outcome{}, err
				}
				conn, err := ftpAuth(m)
				if err != nil {
					return Outcome{}, err
				}
				_, runErr := conn.cmd(payload)
				out := Classify(runErr)
				if !out.Detected && !out.Crashed {
					uid, _, err := m.Mem.LoadWord(uidAddr)
					if err == nil && uid < 100 {
						out.Compromised = true
						out.Evidence = fmt.Sprintf("uid overwritten to %d via %%n at %#x", uid, uidAddr)
					}
				}
				return out, nil
			},
		},
	}
}

// ScenarioByName looks up a replayable scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Driver is one complete attack run against a freshly booted victim,
// under the name the CLIs accept.
type Driver struct {
	Name string
	Run  func(opts Options) (Outcome, error)
}

// Drivers lists every attack driver, sorted by name.
func Drivers() []Driver {
	return []Driver{
		{"env-overflow", EnvOverflowAttack},
		{"exp1", Exp1StackSmash},
		{"exp2", Exp2HeapCorruption},
		{"exp3", Exp3FormatString},
		{"fn-authflag", FNAuthFlagAttack},
		{"fn-authflag-annotated", AnnotatedAuthFlagAttack},
		{"fn-infoleak", FNInfoLeakAttack},
		{"fn-intoverflow", FNIntegerOverflowAttack},
		{"ghttpd-control", GHTTPDControl},
		{"ghttpd-noncontrol", GHTTPDNonControl},
		{"nullhttpd-control", NullHTTPDControl},
		{"nullhttpd-noncontrol", NullHTTPDNonControl},
		{"traceroute", TracerouteDoubleFree},
		{"wuftpd-control", WuFTPDControl},
		{"wuftpd-noncontrol", WuFTPDNonControl},
	}
}

// DriverByName looks up an attack driver.
func DriverByName(name string) (Driver, bool) {
	for _, d := range Drivers() {
		if d.Name == name {
			return d, true
		}
	}
	return Driver{}, false
}
