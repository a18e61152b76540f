package mem

import "repro/internal/metrics"

// FillMetrics publishes the memory's counters into r under the mem.
// namespace: tainted-store and copy-on-write totals as counters, the
// current footprint and label-shadow size as gauges.
func (m *Memory) FillMetrics(r *metrics.Registry) {
	r.Counter("mem.tainted_store_bytes").Add(m.taintedStores)
	r.Counter("mem.cow_faults").Add(m.cowFaults)
	r.Gauge("mem.resident_bytes").Set(float64(m.ResidentBytes()))
	if m.provOn {
		r.Gauge("mem.prov_words").Set(float64(m.provWords))
	}
}
