// Package obs is the fleet observability layer: hierarchical wall-clock
// spans with seeded-deterministic IDs, a bounded per-session flight
// recorder whose JSONL artifacts ship the forensic timeline of every
// anomalous run, and a Chrome-trace composer that nests guest-level
// event streams inside service-level spans.
//
// Determinism is the design constraint everything bends around: the
// simulator's standing oracle is byte-identical output across engines
// and worker counts, and observability must not weaken it. Span IDs are
// derived from the run's seed (never from clocks or randomness), span
// and flight-record *shape* is a pure function of request + seed, and
// everything wall-clock- or engine-dependent lives in an explicitly
// volatile side channel that Normalize strips before any byte
// comparison.
package obs

// SplitMix64 returns output i (counting from 0) of Vigna's SplitMix64
// generator seeded with seed. It is the one mixer behind every value
// that must be a pure function of a seed and a position, never of
// execution order: fault-campaign run seeds, fuzzing mutation streams,
// retry-backoff jitter, and the span IDs here, which must depend only on
// seed and span topology so two engines replaying one request mint
// identical trace trees.
func SplitMix64(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// deriveID folds a parent ID, a span name, and a per-tracer sequence
// number into a child span ID.
func deriveID(parent uint64, name string, seq uint64) uint64 {
	h := parent
	for i := 0; i < len(name); i++ {
		h = SplitMix64(h^uint64(name[i]), 0)
	}
	return SplitMix64(h^seq, 0)
}
