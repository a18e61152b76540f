package main

import "time"

// workers is the load's parallelism: worker goroutines, pool width or
// HTTP connections. It matches the 2-CPU host the bounds were set on.
const workers = 2

// bench is one set-up workload.
type bench interface {
	// run does the workload's untraced work for about d (ops in flight at
	// the deadline finish) and returns what it measured.
	run(d time.Duration) (*tally, error)
	// trace replays the same work sequentially for about d, alternating
	// untraced and traced rounds; traced ops fold their spans into log.
	// It returns the traced tally and the per-layer metrics it measured
	// beyond the span self times.
	trace(d time.Duration, log *spanLog) (*tally, map[string]float64, error)
	// check runs the post-window oracles.
	check() error
	close()
}

// workload names a bench and how to set it up from a seed.
type workload struct {
	name  string
	setup func(seed int64) (bench, error)
	// maxUnattributed, when set, is the largest share of the traced op
	// time the layer spans may leave uncovered before the run counts as
	// failed: there the breakdown must account for the time.
	maxUnattributed float64
}

func workloads() []workload {
	return []workload{
		{"campaign-wuftpd", setupCampaign, 0.05},
		{"spec-suite", setupSpec, 0},
		{"fuzz-batch", setupFuzz, 0.05},
		{"fault-campaign", setupFault, 0},
		{"serve-mixed", setupServe, 0},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mix is splitmix64: every per-round seed derives from the run's --seed
// and the round index.
func mix(seed int64, i uint64) int64 {
	z := uint64(seed) + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// overhead collects the alternating rounds: their ops and intervals.
type overhead struct {
	untracedOps, tracedOps int
	untraced, traced       interval
}

// alternate runs replay rounds for about d: even rounds untraced (a nil
// log), odd rounds traced. Rounds 2j and 2j+1 get the same j, so each
// pair replays the same inputs and their throughput ratio is the tracing
// overhead. prep, when set, produces pair j's inputs before the pair and
// outside its timing. round returns how many ops it completed.
func alternate(d time.Duration, log *spanLog, prep func(j int) error, round func(j int, l *spanLog) (int, error)) (*overhead, error) {
	o := &overhead{}
	deadline := time.Now().Add(d)
	for k := 0; k < 2 || k%2 == 1 || time.Now().Before(deadline); k++ {
		if k%2 == 0 && prep != nil {
			if err := prep(k / 2); err != nil {
				return nil, err
			}
		}
		var l *spanLog
		if k%2 == 1 {
			l = log
		}
		w := startWatch()
		n, err := round(k/2, l)
		if err != nil {
			return nil, err
		}
		if l == nil {
			o.untracedOps += n
			o.untraced.add(w.stop())
		} else {
			o.tracedOps += n
			o.traced.add(w.stop())
		}
	}
	return o, nil
}

// goLayers reports the Go runtime's per-op allocation and GC share over
// the untraced rounds (tracing allocates), and the tracing overhead: one
// minus traced over untraced throughput.
func (o *overhead) goLayers(out map[string]float64) {
	n := float64(o.untracedOps)
	out["go.alloc_kb_per_op"] = ratio(o.untraced.allocBytes/1024, n)
	out["go.gc_cpu_share"] = ratio(o.untraced.gcCPU, o.untraced.totalCPU)
	untraced := ratio(n, o.untraced.wall.Seconds())
	out["trace.overhead_share"] = ratio(untraced-ratio(float64(o.tracedOps), o.traced.wall.Seconds()), untraced)
}
