package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestQuickstartHello(t *testing.T) {
	m, err := BuildC(Config{}, `int main() { puts("hello"); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stdout() != "hello\n" {
		t.Errorf("stdout = %q", m.Stdout())
	}
	if done, code := m.Exited(); !done || code != 0 {
		t.Errorf("exit state = %v %d", done, code)
	}
}

func TestDetectionThroughPublicAPI(t *testing.T) {
	src := `
		void vuln() { char buf[8]; scanstr(buf); }
		int main() { vuln(); return 0; }
	`
	m, err := BuildC(Config{Policy: PointerTaintedness}, src)
	if err != nil {
		t.Fatal(err)
	}
	m.SetStdin([]byte(strings.Repeat("a", 24)))
	var alert *SecurityAlert
	if !errors.As(m.Run(), &alert) {
		t.Fatal("no alert")
	}
	if alert.Value != 0x61616161 {
		t.Errorf("value = %#x", alert.Value)
	}
	if m.Stats().Alerts != 1 {
		t.Errorf("alert count = %d", m.Stats().Alerts)
	}
}

func TestPolicyOffThroughPublicAPI(t *testing.T) {
	src := `
		void vuln() { char buf[8]; scanstr(buf); }
		int main() { vuln(); return 0; }
	`
	m, err := BuildC(Config{Policy: Off}, src)
	if err != nil {
		t.Fatal(err)
	}
	m.SetStdin([]byte(strings.Repeat("a", 24)))
	var f *Fault
	if !errors.As(m.Run(), &f) {
		t.Error("unprotected overflow should crash on the hijacked return")
	}
}

func TestArgsEnvAndFiles(t *testing.T) {
	m, err := BuildC(Config{
		Args:     []string{"-v", "input.txt"},
		Env:      []string{"HOME=/root"},
		ProgName: "tool",
	}, `
		int main(int argc, char **argv, char **envp) {
			printf("%d %s %s %s\n", argc, argv[0], argv[1], envp[0]);
			int fd = open("/data", 0);
			char buf[16];
			int n = read(fd, buf, 15);
			buf[n] = 0;
			printf("file=%s\n", buf);
			return 0;
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	m.WriteFile("/data", []byte("seeded"))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := "3 tool -v HOME=/root\nfile=seeded\n"
	if m.Stdout() != want {
		t.Errorf("stdout = %q, want %q", m.Stdout(), want)
	}
	if got, ok := m.ReadFile("/data"); !ok || string(got) != "seeded" {
		t.Errorf("ReadFile = %q %v", got, ok)
	}
}

func TestServerTransactAPI(t *testing.T) {
	m, err := BuildC(Config{}, `
		int main() {
			int fd = socket();
			bind(fd, 7070);
			listen(fd, 1);
			int c = accept(fd);
			char buf[64];
			int n = recv(c, buf, 63, 0);
			buf[n] = 0;
			send(c, "you said: ", 10, 0);
			send(c, buf, n, 0);
			return 0;
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunToBlock(); err != nil {
		t.Fatal(err)
	}
	ep, err := m.Connect(7070)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Transact(ep, "ping")
	if err != nil {
		t.Fatal(err)
	}
	if out != "you said: ping" {
		t.Errorf("out = %q", out)
	}
}

func TestBuildASM(t *testing.T) {
	m, err := BuildASM(Config{}, `
	.text
	.entry _start
	_start:
		li $a0, 42
		li $v0, 1
		syscall
	`)
	if err != nil {
		t.Fatal(err)
	}
	var ee *ExitError
	if err := m.Run(); !errors.As(err, &ee) || ee.Code != 42 {
		t.Errorf("run = %v", err)
	}
}

func TestCacheAndTaintIntrospection(t *testing.T) {
	m, err := BuildC(Config{WithCache: true}, `
		char buf[32];
		int main() {
			int n = read(0, buf, 32);
			return n;
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	m.SetStdin([]byte("tainted-bytes"))
	if err := m.Run(); err != nil {
		var ee *ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
	}
	addr := m.Symbols()["buf"]
	if addr == 0 {
		t.Fatal("buf symbol missing")
	}
	if got := m.TaintedAt(addr, 13); got != 13 {
		t.Errorf("tainted bytes = %d, want 13", got)
	}
	l1, l2 := m.CacheStats()
	if l1.Hits == 0 || l2.Misses == 0 {
		t.Errorf("cache stats empty: %+v %+v", l1, l2)
	}
	// 13 stdin bytes plus argv[0] ("a.out"), which is tainted at startup.
	if got := m.InputStats().TaintedBytes; got != 18 {
		t.Errorf("input stats = %+v, want 18 tainted bytes", m.InputStats())
	}
	if m.Pipeline().Cycles == 0 {
		t.Error("pipeline cycles = 0")
	}
}

func TestNoLibcBuild(t *testing.T) {
	m, err := BuildC(Config{NoLibc: true}, `
		int main() { return 7; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	var ee *ExitError
	if err := m.Run(); !errors.As(err, &ee) || ee.Code != 7 {
		t.Errorf("run = %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := BuildC(Config{}, "int main( {"); err == nil {
		t.Error("bad C accepted")
	}
	if _, err := BuildASM(Config{}, "bogus instruction"); err == nil {
		t.Error("bad asm accepted")
	}
}

func TestCacheMissesRaiseCPI(t *testing.T) {
	// A strided sweep over 1MB thrashes both cache levels; the modeled
	// machine with the hierarchy must report a higher CPI than the same
	// program on ideal flat memory.
	src := `
		int main() {
			char *p = malloc(1048576);
			int s = 0;
			for (int pass = 0; pass < 2; pass++) {
				for (int i = 0; i < 1048576; i += 64) s += p[i];
			}
			return s & 1;
		}
	`
	run := func(withCache bool) (float64, uint64) {
		m, err := BuildC(Config{WithCache: withCache, Budget: 1 << 32}, src)
		if err != nil {
			t.Fatal(err)
		}
		runErr := m.Run()
		var ee *ExitError
		if runErr != nil && !errors.As(runErr, &ee) {
			t.Fatal(runErr)
		}
		p := m.Pipeline()
		return p.CPI(m.Stats().Instructions), p.MemPenalties
	}
	flatCPI, flatPen := run(false)
	cacheCPI, cachePen := run(true)
	if flatPen != 0 {
		t.Errorf("flat memory charged %d penalty cycles", flatPen)
	}
	if cachePen == 0 {
		t.Error("hierarchy charged no penalty cycles on a thrashing sweep")
	}
	if cacheCPI <= flatCPI {
		t.Errorf("CPI with cache %.3f not above flat %.3f", cacheCPI, flatCPI)
	}
}

// TestConfigReachesGuest walks the boot options of the one Config every
// entry point shares: each must reach the machine BootImage assembles.
func TestConfigReachesGuest(t *testing.T) {
	const idle = `int main() { return 0; }`
	var events bytes.Buffer
	cases := []struct {
		name    string
		cfg     Config
		src     string
		wantErr string // boot error substring; empty for a good boot
		check   func(t *testing.T, m *Machine)
	}{
		{
			name: "stdin, files and progname",
			cfg: Config{
				ProgName: "tool",
				Stdin:    []byte("from-stdin"),
				Files:    map[string][]byte{"/data": []byte("from-file")},
			},
			src: `
				int main(int argc, char **argv) {
					char in[16];
					char f[16];
					int n = read(0, in, 15);
					in[n] = 0;
					int fd = open("/data", 0);
					n = read(fd, f, 15);
					f[n] = 0;
					printf("%s %s %s\n", argv[0], in, f);
					return 0;
				}
			`,
			check: func(t *testing.T, m *Machine) {
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if got, want := m.Stdout(), "tool from-stdin from-file\n"; got != want {
					t.Errorf("stdout = %q, want %q", got, want)
				}
			},
		},
		{
			name: "events stream carries argv taint births",
			cfg:  Config{Provenance: true, Events: &events, Args: []string{"xyz"}},
			src:  idle,
			check: func(t *testing.T, m *Machine) {
				if !strings.Contains(events.String(), `"kind":"input"`) ||
					!strings.Contains(events.String(), "argv[1] 3 bytes") {
					t.Errorf("events stream lacks the argv[1] input birth:\n%s", events.String())
				}
			},
		},
		{
			name: "default containment",
			src:  idle,
			check: func(t *testing.T, m *Machine) {
				if m.Budget() != DefaultBudget {
					t.Errorf("budget = %d, want %d", m.Budget(), DefaultBudget)
				}
				if m.Mem.ResidentLimit() != DefaultMemLimit {
					t.Errorf("memory cap = %d, want %d", m.Mem.ResidentLimit(), DefaultMemLimit)
				}
			},
		},
		{
			name: "negative MemLimit uncaps",
			cfg:  Config{MemLimit: -1},
			src:  idle,
			check: func(t *testing.T, m *Machine) {
				if m.Mem.ResidentLimit() != 0 {
					t.Errorf("memory cap = %d, want none", m.Mem.ResidentLimit())
				}
			},
		},
		{
			name:    "provenance needs flat memory",
			cfg:     Config{Provenance: true, WithCache: true},
			src:     idle,
			wantErr: "flat memory",
		},
		{
			name: "snapshot fork matches a direct run",
			cfg:  Config{Stdin: []byte("abc")},
			src: `
				int main() {
					char buf[8];
					int n = read(0, buf, 7);
					buf[n] = 0;
					printf("read %s\n", buf);
					return 0;
				}
			`,
			check: func(t *testing.T, m *Machine) {
				snap, err := m.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				f := snap.Fork()
				ferr, merr := f.Run(), m.Run()
				if ferr != nil || merr != nil {
					t.Fatalf("fork run: %v, direct run: %v", ferr, merr)
				}
				if f.Stdout() != "read abc\n" || f.Stdout() != m.Stdout() {
					t.Errorf("fork stdout %q, direct stdout %q", f.Stdout(), m.Stdout())
				}
				if f.Stats() != m.Stats() {
					t.Errorf("fork stats %+v, direct stats %+v", f.Stats(), m.Stats())
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := BuildC(tc.cfg, tc.src)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("boot error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, m)
		})
	}
}
