// Command ptbench is the repository's end-to-end benchmark. Five
// workloads drive the attack, campaign, fuzz, fault and serve layers
// through their public entry points for a fixed wall-clock window, check
// every output against an oracle, and report end-to-end metrics; a traced
// run (--trace 1) replays the same work with obs spans around every
// public call and reports per-layer metrics instead.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
//
// Without --workload every workload runs in turn. Each workload runs in a
// fresh child process, so process-wide caches (built images, static
// facts, the wu-ftpd calibration) start cold and setup_s measures a real
// cold start. Every metric is
// printed as one JSON line, and the last line of each workload is
// {"correct", "attempted", "failed", "metrics"}. The exit status is
// non-zero when any output was wrong.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/attack"
	rmetrics "repro/internal/metrics"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line that closes each workload's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndMetrics are measured with tracing off; every workload reports
// all of them.
var endToEndMetrics = []string{"setup_s", "ops_per_s", "ns_per_instr", "p50_ms", "rss_mb"}

// perLayerMetrics come from the traced run; every workload reports all of
// them, 0 where the workload never enters that layer.
var perLayerMetrics = []string{
	"attack.fork_us", "attack.boot_us", "attack.session_us", "attack.classify_us",
	"attack.static_cache_miss_ratio",
	"cpu.run_us", "cpu.instrs_per_op", "cpu.tainted_share", "cpu.superblock_share",
	"cpu.static_skip_share", "cpu.block_builds_per_op", "sb.deopts_per_op", "cpu.syscalls_per_op",
	"cpu.covmap_reset_us", "cpu.cov_features_us",
	"spec.bzip2s.ns_per_instr", "spec.gccs.ns_per_instr", "spec.gzips.ns_per_instr",
	"spec.mcfs.ns_per_instr", "spec.parsers.ns_per_instr", "spec.vprs.ns_per_instr",
	"spec.bzip2s.superblock_share", "spec.gccs.superblock_share", "spec.gzips.superblock_share",
	"spec.mcfs.superblock_share", "spec.parsers.superblock_share", "spec.vprs.superblock_share",
	"mem.cow_faults_per_op", "kernel.bytes_read_per_op", "kernel.stdin_us", "netsim.io_us",
	"prov.labels_per_op",
	"fuzz.play_us", "fuzz.engine_us", "fuzz.trim_share", "fuzz.corpus_admit_ratio",
	"campaign.summarize_us", "campaign.p99_ms", "serve.p99_ms", "metrics.capture_us",
	"go.alloc_kb_per_op", "go.gc_cpu_share",
	"serve.admit_ms", "serve.queue_ms", "serve.run_ms", "serve.build_ms", "serve.boot_ms",
	"serve.guest_run_ms", "serve.classify_ms", "serve.snapshot_fork_ms", "serve.merge_ms",
	"serve.settle_ms", "serve.handler_us", "http.overhead_ms", "serve.shed_ratio", "loadgen.late_p99_ms",
	"bench.check_us", "unattributed_share", "trace.overhead_share",
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case name == "ops_per_s":
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "ns_per_instr"):
		return "ns"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_kb_per_op"):
		return "KB"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.Contains(name, "bytes"):
		return "B"
	}
	return "count"
}

// options are the command-line settings shared by parent and child.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceDir string
	child    string // "", "setup" or "run"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var opt options
	fs := flag.NewFlagSet("ptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "workload to run (default: all, in turn)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&opt.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&opt.trace, "trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
	fs.StringVar(&opt.traceDir, "trace-dir", ".bench_build/trace", "where the traced run writes <workload>.spans.jsonl and <workload>.chrome.json")
	fs.StringVar(&opt.child, "child", "", "internal: run as a workload child process (setup or run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || opt.seconds <= 0 || (opt.trace != 0 && opt.trace != 1) {
		fmt.Fprintln(stderr, "ptbench: bad arguments (want --workload NAME --seed N --seconds S --trace 0|1)")
		return 2
	}
	names := workloadNames()
	if opt.workload != "" {
		if _, ok := workloadByName(opt.workload); !ok {
			fmt.Fprintf(stderr, "ptbench: unknown workload %q (have %s)\n", opt.workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{opt.workload}
	}
	if opt.child != "" {
		if opt.workload == "" {
			fmt.Fprintln(stderr, "ptbench: a child needs --workload")
			return 2
		}
		return childMain(opt, stdout, stderr)
	}

	status := 0
	for _, name := range names {
		res, err := parentRun(name, opt, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "ptbench: %s: %v\n", name, err)
			return 1
		}
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := res.Metrics[k]
			if err := writeJSONLine(stdout, struct {
				Workload string  `json:"workload"`
				Metric   string  `json:"metric"`
				Value    float64 `json:"value"`
				Unit     string  `json:"unit"`
			}{name, k, m.Value, m.Unit}); err != nil {
				fmt.Fprintln(stderr, "ptbench:", err)
				return 1
			}
		}
		if err := writeJSONLine(stdout, res); err != nil {
			fmt.Fprintln(stderr, "ptbench:", err)
			return 1
		}
		if !res.Correct {
			status = 1
		}
	}
	return status
}

// setupProbes is how many extra set-up-only children the parent starts
// per untraced workload; setup_s is the median over them and the
// measuring child.
const setupProbes = 8

// childTimeout bounds one child process.
const childTimeout = 170 * time.Second

// parentRun measures one workload: set-up probes, then the measuring
// child, whose result it completes with setup_s.
func parentRun(name string, opt options, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var setups []float64
	if opt.trace == 0 {
		for i := 0; i < setupProbes; i++ {
			c, err := runChild(exe, name, opt, "setup", stderr)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, c.setup.Seconds())
		}
	}
	c, err := runChild(exe, name, opt, "run", stderr)
	if err != nil {
		return result{}, err
	}
	var res result
	if err := json.Unmarshal([]byte(c.last), &res); err != nil {
		return result{}, fmt.Errorf("child result %q: %w", c.last, err)
	}
	if opt.trace == 0 {
		setups = append(setups, c.setup.Seconds())
		res.Metrics["setup_s"] = metric{quantile(setups, 0.5), unitOf("setup_s")}
	}
	return res, nil
}

// childRun is what the parent learns from one child process.
type childRun struct {
	setup time.Duration // start until the child reported "ready"
	last  string        // the child's last stdout line
}

func runChild(exe, name string, opt options, mode string, stderr io.Writer) (childRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"--child", mode, "--workload", name,
		"--seed", strconv.FormatInt(opt.seed, 10),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(opt.trace),
		"--trace-dir", opt.traceDir)
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	var c childRun
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == readyLine && c.setup == 0 {
			c.setup = time.Since(start)
			continue
		}
		if line != "" {
			c.last = line
		}
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	switch {
	case scanErr != nil:
		return c, scanErr
	case c.setup == 0:
		return c, fmt.Errorf("%s child never became ready: %v", mode, waitErr)
	case mode == "run" && c.last == "":
		return c, fmt.Errorf("child printed no result: %v", waitErr)
	}
	var exit *exec.ExitError
	if waitErr != nil && !(mode == "run" && errors.As(waitErr, &exit)) {
		// A run child exits non-zero after printing an incorrect result;
		// anything else is a failed child.
		return c, fmt.Errorf("%s child: %w", mode, waitErr)
	}
	return c, nil
}

// readyLine is what a child prints once set-up is complete.
const readyLine = "ready"

// childMain sets the workload up, reports ready, and — for a run child —
// measures it and prints the result line.
func childMain(opt options, stdout, stderr io.Writer) int {
	w, _ := workloadByName(opt.workload)
	b, err := w.setup(opt.seed)
	if err != nil {
		fmt.Fprintf(stderr, "ptbench: %s: setup: %v\n", opt.workload, err)
		return 1
	}
	defer b.close()
	fmt.Fprintln(stdout, readyLine)
	if opt.child == "setup" {
		return 0
	}
	d := time.Duration(opt.seconds * float64(time.Second))
	var res result
	if opt.trace == 1 {
		res, err = measureTraced(w, b, d, opt)
	} else {
		res, err = measureUntraced(b, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ptbench: %s: %v\n", opt.workload, err)
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil || !res.Correct {
		return 1
	}
	return 0
}

// warmUp is the discarded run before every measured window: it fills the
// block and superblock caches and the Go heap to their steady state
// (tests shrink it).
var warmUp = time.Second

func measureUntraced(b bench, d time.Duration) (result, error) {
	if _, err := b.run(warmUp); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	t, err := b.run(d)
	if err != nil {
		return result{}, err
	}
	vals := endToEnd(t)
	if err := b.check(); err != nil {
		t.fail(1, "post-run oracle: %v", err)
	}
	return finish(t, vals, endToEndMetrics[1:]), nil
}

func measureTraced(w workload, b bench, d time.Duration, opt options) (result, error) {
	if _, err := b.run(warmUp); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	log := newSpanLog()
	hits, misses := staticCache()
	t, own, err := b.trace(d, log)
	if err != nil {
		return result{}, err
	}
	hits1, misses1 := staticCache()
	vals := map[string]float64{
		"attack.static_cache_miss_ratio": ratio(misses1-misses, hits1+misses1-hits-misses),
	}
	log.layers(vals)
	for k, v := range own { // a workload's own definition wins
		vals[k] = v
	}
	if u := vals["unattributed_share"]; w.maxUnattributed > 0 && u > w.maxUnattributed {
		t.fail(1, "layer spans leave %.1f%% of the op time unattributed (limit %.0f%%)", 100*u, 100*w.maxUnattributed)
	}
	if err := log.write(opt.traceDir, w.name); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	if err := b.check(); err != nil {
		t.fail(1, "post-run oracle: %v", err)
	}
	return finish(t, vals, perLayerMetrics), nil
}

// staticCache reads the process-wide static-fact cache's hit and miss
// counters (ptserve runs in this process, so they are its counters too).
func staticCache() (hits, misses float64) {
	r := rmetrics.New()
	attack.FillStaticCacheMetrics(r)
	s := r.Snapshot()
	return float64(s.Counters["attack.static_cache.hits"]), float64(s.Counters["attack.static_cache.misses"])
}

// finish assembles the result line: every wanted metric (0 where the
// workload produced none), the op counts, and correctness. A measured
// metric that is not wanted is a declaration bug and fails the run.
func finish(t *tally, vals map[string]float64, want []string) result {
	declared := make(map[string]bool, len(want))
	for _, name := range want {
		declared[name] = true
	}
	for name := range vals {
		if !declared[name] {
			t.fail(1, "metric %q is measured but not declared", name)
		}
	}
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.ops,
		Failed:    t.failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	for _, name := range want {
		res.Metrics[name] = metric{vals[name], unitOf(name)}
	}
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "ptbench: failure:", e)
	}
	return res
}
