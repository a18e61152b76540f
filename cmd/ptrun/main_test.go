package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCProgram(t *testing.T) {
	prog := writeTemp(t, "ok.c", `int main() { puts("fine"); return 0; }`)
	code, err := run([]string{prog})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
}

func TestRunExitCode(t *testing.T) {
	prog := writeTemp(t, "seven.c", `int main() { return 7; }`)
	code, err := run([]string{prog})
	if err != nil || code != 7 {
		t.Fatalf("code=%d err=%v", code, err)
	}
}

func TestRunAlertExitsTwo(t *testing.T) {
	prog := writeTemp(t, "vuln.c", `
		void v() { char b[8]; gets(b); }
		int main() { v(); return 0; }
	`)
	stdin := writeTemp(t, "payload", strings.Repeat("a", 24))
	code, err := run([]string{"-stdin", stdin, prog})
	if err != nil || code != 2 {
		t.Fatalf("code=%d err=%v, want 2 (alert)", code, err)
	}
}

func TestRunAsmWithStatsAndProfile(t *testing.T) {
	prog := writeTemp(t, "p.s", `
	.text
	.entry _start
	_start:
		li $a0, 0
		li $v0, 1
		syscall
	`)
	code, err := run([]string{"-stats", "-profile", "-cache", prog})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
}

func TestRunGuestFilesAndArgs(t *testing.T) {
	prog := writeTemp(t, "cat.c", `
		int main(int argc, char **argv) {
			if (argc < 2) return 1;
			int fd = open(argv[1], 0);
			if (fd == -1) return 2;
			char buf[32];
			int n = read(fd, buf, 31);
			buf[n] = 0;
			puts(buf);
			return 0;
		}
	`)
	host := writeTemp(t, "data.txt", "payload-bytes")
	code, err := run([]string{"-file", "/data:" + host, prog, "/data"})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := run(nil); err == nil {
		t.Error("no program accepted")
	}
	if _, err := run([]string{"-policy", "bogus", "x.c"}); err == nil {
		t.Error("bad policy accepted")
	}
	prog := writeTemp(t, "p.c", "int main() { return 0; }")
	if _, err := run([]string{"-file", "malformed", prog}); err == nil {
		t.Error("bad -file accepted")
	}
	if _, err := run([]string{"/nonexistent.c"}); err == nil {
		t.Error("missing program accepted")
	}
}

// vulnProg overflows a 12-byte gets buffer; with vulnPayload on stdin the
// tainted return address trips the JR detector.
const vulnProg = `
	void v() { char b[12]; gets(b); puts(b); }
	int main() { v(); return 0; }
`

var vulnPayload = strings.Repeat("a", 24)

// TestRunTraceEvents: -prov -trace-events writes one JSON object per line,
// and the stdin bytes' origin appears as an input event.
func TestRunTraceEvents(t *testing.T) {
	prog := writeTemp(t, "vuln.c", vulnProg)
	stdin := writeTemp(t, "payload", vulnPayload)
	out := filepath.Join(t.TempDir(), "events.jsonl")
	code, err := run([]string{"-prov", "-stdin", stdin, "-trace-events", out, prog})
	if err != nil || code != 2 {
		t.Fatalf("code=%d err=%v, want 2 (alert)", code, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !hasInputEvent(t, data) {
		t.Error("no input event in the trace")
	}
}

// hasInputEvent checks that every line of a JSONL trace parses and
// reports whether any of them is an input event.
func hasInputEvent(t *testing.T, jsonl []byte) bool {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(nil, 1<<20)
	lines, input := 0, false
	for sc.Scan() {
		lines++
		var ev struct{ Kind string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v: %s", lines, err, sc.Text())
		}
		input = input || ev.Kind == "input"
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("trace is empty")
	}
	return input
}

// TestRunTraceChrome: -trace-chrome frames the guest's events with the
// harness spans. build and guest-run are "X" spans on tid 1, and every
// guest instant sits on tid 2 inside guest-run.
func TestRunTraceChrome(t *testing.T) {
	prog := writeTemp(t, "vuln.c", vulnProg)
	stdin := writeTemp(t, "payload", vulnPayload)
	out := filepath.Join(t.TempDir(), "trace.json")
	if code, err := run([]string{"-prov", "-stdin", stdin, "-trace-chrome", out, prog}); err != nil || code != 2 {
		t.Fatalf("code=%d err=%v, want 2 (alert)", code, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not a trace_event document: %v", err)
	}
	spans := map[string]int{}
	var runStart, runEnd float64
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			if ev.TID != 1 {
				t.Errorf("span %s on tid %d, want 1", ev.Name, ev.TID)
			}
			spans[ev.Name]++
			if ev.Name == "guest-run" {
				runStart, runEnd = ev.TS, ev.TS+ev.Dur
			}
		}
	}
	if spans["build"] != 1 || spans["guest-run"] != 1 || len(spans) != 2 {
		t.Fatalf("spans = %v, want one build and one guest-run", spans)
	}
	instants := 0
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "i" {
			continue
		}
		instants++
		if ev.TID != 2 {
			t.Errorf("guest event %s on tid %d, want 2", ev.Name, ev.TID)
		}
		if ev.TS < runStart || ev.TS > runEnd {
			t.Errorf("guest event %s at %g outside guest-run [%g, %g]", ev.Name, ev.TS, runStart, runEnd)
		}
	}
	if instants == 0 {
		t.Error("no guest events in the trace")
	}
}

// TestRunTraceToStdout: "-" sends an export to stdout, after the guest's
// own output.
func TestRunTraceToStdout(t *testing.T) {
	prog := writeTemp(t, "hello.c", `int main() { puts("guest-says-hi"); return 0; }`)
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	saved := os.Stdout
	os.Stdout = stdout
	code, err := run([]string{"-prov", "-trace-events", "-", prog})
	os.Stdout = saved
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	data, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	jsonl, ok := bytes.CutPrefix(data, []byte("guest-says-hi\n"))
	if !ok {
		t.Fatalf("stdout does not start with the guest's output:\n%s", data)
	}
	if !hasInputEvent(t, jsonl) {
		t.Error("no input event (argv[0]) in the streamed trace")
	}
}
