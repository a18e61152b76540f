package attack

// This file defines the input surfaces the coverage-guided fuzzer
// (internal/fuzz, cmd/ptfuzz) mutates. Each InputTarget pairs a scenario's
// snapshot point with a Play function that delivers ONE arbitrary byte
// string where the scripted attack delivers its payload — stdin for the
// Fig. 2 synthetic victims, an authenticated FTP command line for wu-ftpd
// — and classifies what the detection mechanism did about it. A target
// whose input follows a fixed dialogue (the FTP login) names it as its
// Prelude, so the fuzzer can run it once and fork every input past it.
// The seeds are deliberately benign: rediscovering the scripted attacks'
// alert fingerprints from them is the fuzzer's whole acceptance test.

// InputTarget is one fuzzable input surface.
type InputTarget struct {
	// Scenario supplies the name, the snapshot-point Boot, and the
	// scripted attack Session whose alert fingerprint the fuzzer tries to
	// rediscover from benign seeds.
	Scenario Scenario
	// Seeds are the benign corpus the fuzzer starts from. None of them
	// trigger a detector; each exercises the input path end to end.
	Seeds [][]byte
	// Dict holds protocol tokens for the mutator's dictionary stage
	// (command verbs, format directives). Nil for raw byte streams.
	Dict [][]byte
	// MaxLen bounds generated inputs, in bytes.
	MaxLen int
	// Prelude advances a machine at the snapshot point through the fixed
	// dialogue that precedes the input (the FTP connect and login); nil
	// when the input is the first thing the victim reads.
	Prelude func(m *Machine) error
	// Play delivers input to a machine forked from the snapshot point, or
	// from a snapshot taken after Prelude, and classifies the run. It must
	// be deterministic in (snapshot, input), and the two starting points
	// give the same run.
	Play func(m *Machine, input []byte) (Outcome, error)
}

// InputTargets lists the fuzzable surfaces in stable order.
func InputTargets() []InputTarget {
	var targets []InputTarget
	for _, s := range Scenarios() {
		switch s.Name {
		case "exp1-stack":
			targets = append(targets, InputTarget{
				Scenario: s,
				Seeds: [][]byte{
					[]byte("hi\n"),
					[]byte("benign\n"),
				},
				MaxLen: 64,
				Play:   playStdin,
			})
		case "exp2-heap":
			targets = append(targets, InputTarget{
				Scenario: s,
				// Both seeds fit the 8-byte heap buffer: no overflow, no
				// free-chunk header corruption.
				Seeds: [][]byte{
					[]byte("ok\n"),
					[]byte("abcde\n"),
				},
				MaxLen: 64,
				Play:   playStdin,
			})
		case "wuftpd-site-exec":
			targets = append(targets, InputTarget{
				Scenario: s,
				Seeds: [][]byte{
					[]byte("SITE EXEC hello"),
					[]byte("HELP"),
					[]byte("PWD"),
					[]byte("CWD /tmp"),
				},
				Dict: [][]byte{
					[]byte("SITE EXEC "),
					[]byte("USER "),
					[]byte("PASS "),
					[]byte("CWD "),
					[]byte("STOR "),
					[]byte("%x"),
					[]byte("%n"),
					[]byte("%s"),
					[]byte("%d"),
				},
				MaxLen:  128,
				Prelude: ftpPrelude,
				Play:    playFTPCommand,
			})
		}
	}
	return targets
}

// InputTargetByName looks up a fuzzable surface by scenario name.
func InputTargetByName(name string) (InputTarget, bool) {
	for _, t := range InputTargets() {
		if t.Scenario.Name == name {
			return t, true
		}
	}
	return InputTarget{}, false
}

// playStdin delivers input verbatim as the victim's stdin stream and runs
// the machine to its terminal state. The stream simply ends after the
// input: reads past it return EOF, so inputs need no terminator.
func playStdin(m *Machine, input []byte) (Outcome, error) {
	m.Kernel.SetStdin(input)
	return Classify(m.Run()), nil
}

// ftpPrelude is the wu-ftpd target's fixed dialogue: connect and log in.
func ftpPrelude(m *Machine) error {
	_, err := ftpAuth(m)
	return err
}

// playFTPCommand authenticates the attacker's session against the forked
// daemon, or continues the one the prelude left open (the login dialogue
// is fixed; only the command after it is attacker-chosen, exactly the
// paper's Table 2 shape), and sends input as one command line.
func playFTPCommand(m *Machine, input []byte) (Outcome, error) {
	conn, err := ftpAuth(m)
	if err != nil {
		return Outcome{}, err
	}
	_, runErr := conn.cmd(string(input))
	return Classify(runErr), nil
}
