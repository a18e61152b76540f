package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	rmetrics "repro/internal/metrics"
	"repro/internal/obs"
)

// tally is what one measured window produced: the ops it attempted,
// their latencies, every failure, and the window cut into samples (a
// chunk, round, batch, campaign or slice of time each). A workload fills
// it from one goroutine.
type tally struct {
	ops     int
	failed  int
	errs    []string
	lat     []time.Duration
	samples []sample
}

// sample is one sub-window: the ops and guest instructions it completed,
// its interval, and the resident set size at its end.
type sample struct {
	ops    int
	instrs uint64
	interval
	rss float64 // bytes
}

// stopwatch marks the start of an interval.
type stopwatch struct {
	wall  time.Time
	cpu   time.Duration
	goRun [3]float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime(), readGoRuntime()} }

// interval is what passed since a stopwatch started: wall time, process
// CPU time, and the Go runtime's allocation and GC CPU counters.
type interval struct {
	wall, cpu                   time.Duration
	allocBytes, gcCPU, totalCPU float64
}

func (w stopwatch) stop() interval {
	g := readGoRuntime()
	return interval{
		wall:       time.Since(w.wall),
		cpu:        cpuTime() - w.cpu,
		allocBytes: g[0] - w.goRun[0],
		gcCPU:      g[1] - w.goRun[1],
		totalCPU:   g[2] - w.goRun[2],
	}
}

func (v *interval) add(o interval) {
	v.wall += o.wall
	v.cpu += o.cpu
	v.allocBytes += o.allocBytes
	v.gcCPU += o.gcCPU
	v.totalCPU += o.totalCPU
}

// sample ends the sample w started.
func (w stopwatch) sample(ops int, instrs uint64) sample {
	return sample{ops, instrs, w.stop(), residentBytes()}
}

// lap ends the sample w started and counts its ops.
func (t *tally) lap(w stopwatch, ops int, instrs uint64) {
	t.ops += ops
	t.samples = append(t.samples, w.sample(ops, instrs))
}

// residentBytes is the process's resident set size, from /proc/self/statm
// (0 where that file does not exist).
func residentBytes() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return resident * float64(os.Getpagesize())
}

// fail records one failed op with its reason; only the first few reasons
// are kept, the count is exact.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// latencyMs returns the q-quantile of the tally's latencies in ms.
func (t *tally) latencyMs(q float64) float64 {
	xs := make([]float64, len(t.lat))
	for i, d := range t.lat {
		xs[i] = float64(d) / 1e6
	}
	return quantile(xs, q)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var goRuntimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoRuntime() [3]float64 {
	samples := make([]metrics.Sample, len(goRuntimeNames))
	for i, n := range goRuntimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var out [3]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// endToEnd turns an untraced window's tally into the end-to-end metrics
// the child measures itself (setup_s comes from the parent). Throughput,
// CPU per instruction and resident memory are taken per sample. On a host
// shared with noisy neighbours a sample can only be slowed, never sped
// up, so throughput is the fastest tenth's (the 90th percentile) and CPU
// per instruction the cheapest tenth's (the 10th): both still move with
// any change to the code every sample runs. Memory is the median sample,
// since the peak depends on when the garbage collector happened to run.
func endToEnd(t *tally) map[string]float64 {
	var tput, cost, rss []float64
	for _, s := range t.samples {
		tput = append(tput, float64(s.ops)/s.wall.Seconds())
		if s.instrs > 0 {
			cost = append(cost, float64(s.cpu)/float64(s.instrs))
		}
		rss = append(rss, s.rss/(1<<20))
	}
	return map[string]float64{
		"ops_per_s":    quantile(tput, 0.9),
		"ns_per_instr": quantile(cost, 0.1),
		"p50_ms":       t.latencyMs(0.50),
		"rss_mb":       quantile(rss, 0.5),
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never engaged).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters accumulates machine-counter deltas (session metrics minus the
// counter state the session started from) across ops.
type counters map[string]float64

// add folds one finished machine's metrics, less base, into c. Labeled
// series fold into their base name.
func (c counters) add(m, base rmetrics.Snapshot) {
	for k, v := range m.Counters {
		c[baseName(k)] += float64(v)
	}
	for k, v := range base.Counters {
		c[baseName(k)] -= float64(v)
	}
}

func baseName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// machineLayers derives the cpu/mem/kernel/prov per-layer metrics from
// accumulated counter deltas over ops operations.
func (c counters) machineLayers(ops int, out map[string]float64) {
	n := float64(ops)
	instrs := c["cpu.instructions"]
	out["cpu.instrs_per_op"] = ratio(instrs, n)
	out["cpu.tainted_share"] = ratio(c["cpu.tainted_steps"], instrs)
	out["cpu.superblock_share"] = ratio(c["sb.instructions"], instrs)
	out["cpu.static_skip_share"] = ratio(c["cpu.static_clean_skips"], instrs)
	out["cpu.block_builds_per_op"] = ratio(c["cpu.block_misses"], n)
	out["sb.deopts_per_op"] = ratio(c["sb.deopts"], n)
	out["cpu.syscalls_per_op"] = ratio(c["cpu.syscalls"], n)
	out["mem.cow_faults_per_op"] = ratio(c["mem.cow_faults"], n)
	out["kernel.bytes_read_per_op"] = ratio(c["kernel.bytes_read"], n)
	out["prov.labels_per_op"] = ratio(c["prov.labels"], n)
}

// keptOps bounds how many op span trees the trace files hold; the layer
// metrics fold every op.
const keptOps = 200

// spanLog is the traced run's span sink. Each op gets its own
// obs.Tracer seeded by the op index (so its span tree is deterministic);
// when the op ends its records fold into per-layer self times, and the
// first keptOps trees are kept for the trace files. A nil *spanLog is the
// untraced path: its tracer is nil, and a nil tracer's spans are no-ops.
type spanLog struct {
	mu      sync.Mutex
	epoch   time.Time
	self    map[string]time.Duration
	opSelf  time.Duration
	opTotal time.Duration
	ops     int
	kept    []obs.SpanRecord
	tracers int
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), self: make(map[string]time.Duration)}
}

// tracer returns a fresh tracer and its start offset from the log's
// epoch, or (nil, 0) on the untraced path.
func (l *spanLog) tracer() (*obs.Tracer, time.Duration) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	seed := uint64(l.tracers)
	l.tracers++
	l.mu.Unlock()
	off := time.Since(l.epoch)
	return obs.NewTracer(seed), off
}

// fold computes each span's self time (its duration minus its children's)
// and charges it to the span's name; root spans named "op" are the unit
// every per-layer metric is normalized by, and their self time is the
// unattributed remainder.
func (l *spanLog) fold(tr *obs.Tracer, off time.Duration) {
	if l == nil || tr == nil {
		return
	}
	recs := tr.Records()
	child := make(map[string]int64, len(recs))
	for _, r := range recs {
		if r.Parent != "" {
			child[r.Parent] += r.DurNs
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range recs {
		self := time.Duration(r.DurNs - child[r.ID])
		if r.Name == "op" && r.Parent == "" {
			l.ops++
			l.opSelf += self
			l.opTotal += time.Duration(r.DurNs)
			continue
		}
		l.self[r.Name] += self
	}
	if l.ops <= keptOps {
		for _, r := range recs {
			r.StartNs += off.Nanoseconds()
			l.kept = append(l.kept, r)
		}
	}
}

// layers writes "<span name>_us" self time per op for every span name,
// plus unattributed_share.
func (l *spanLog) layers(out map[string]float64) {
	for name, d := range l.self {
		out[name+"_us"] = ratio(float64(d.Nanoseconds())/1e3, float64(l.ops))
	}
	out["unattributed_share"] = ratio(float64(l.opSelf), float64(l.opTotal))
}

// write dumps the kept span trees as JSONL and as a Chrome trace.
func (l *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(jf)
	for _, r := range l.kept {
		if err := enc.Encode(r); err != nil {
			jf.Close()
			return err
		}
	}
	if err := jf.Close(); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(dir, workload+".chrome.json"))
	if err != nil {
		return err
	}
	if err := obs.ComposeChrome(cf, l.kept, "", nil); err != nil {
		cf.Close()
		return err
	}
	return cf.Close()
}

// writeJSONLine encodes v as one line on w.
func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
