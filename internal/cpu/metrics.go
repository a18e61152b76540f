package cpu

import "repro/internal/metrics"

// FillMetrics publishes the CPU's counters into r under the cpu./pipe./
// trace./prov. namespaces. The hot loops keep their raw struct counters
// (a registry lookup per retired instruction would wreck the fast path);
// this bridge is the exposition side, called on demand against a fresh
// registry. Counters Add rather than Set, so several machines may be
// summed into one registry.
func (c *CPU) FillMetrics(r *metrics.Registry) {
	s := c.stats
	r.Counter("cpu.instructions").Add(s.Instructions)
	r.Counter("cpu.loads").Add(s.Loads)
	r.Counter("cpu.stores").Add(s.Stores)
	r.Counter("cpu.branches").Add(s.Branches)
	r.Counter("cpu.syscalls").Add(s.Syscalls)
	r.Counter("cpu.alerts").Add(s.Alerts)
	r.Counter("cpu.block_hits").Add(s.BlockHits)
	r.Counter("cpu.block_misses").Add(s.BlockMisses)
	r.Counter("cpu.clean_skips").Add(s.CleanSkips)
	r.Counter("cpu.tainted_steps").Add(s.TaintedSteps)

	r.Counter("sb.runs").Add(s.SuperblockRuns)
	r.Counter("sb.instructions").Add(s.SuperblockInstrs)
	r.Counter("sb.deopts").Add(s.SuperblockDeopts)
	for _, d := range s.DeoptReasons() {
		r.Counter(metrics.Labeled("sb.deopts_by_reason", "reason", d.Reason)).Add(d.Count)
	}

	p := c.Pipe()
	r.Counter("pipe.cycles").Add(p.Cycles)
	r.Counter("pipe.stalls").Add(p.Stalls)
	r.Counter("pipe.flushes").Add(p.Flushes)
	r.Counter("pipe.mem_penalty_cycles").Add(p.MemPenalties)

	if c.events != nil {
		r.Counter("trace.events").Add(c.events.Total())
		r.Counter("trace.events_dropped").Add(c.events.Dropped())
	}
	if c.prov != nil {
		r.Counter("prov.origins").Add(uint64(c.prov.table.NumOrigins()))
		r.Counter("prov.labels").Add(uint64(c.prov.table.NumLabels()))
	}
}
