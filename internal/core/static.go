package core

import (
	"sync"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/metrics"
	"repro/internal/taint"
)

// staticKey identifies one analysis run. Images are cached per program
// (progs.Build), so pointer identity is the program identity; the
// propagator matters because its ablation flags gate the untaint rules
// the analysis models.
type staticKey struct {
	im   *asm.Image
	prop taint.Propagator
}

// staticCacheCap bounds the fact cache. The corpus is a few dozen
// programs and each runs under a handful of propagator ablations, so 64
// entries covers every steady-state campaign; the cap exists because the
// key holds an image pointer — an unbounded map would pin every image a
// long-lived fuzzing process ever booted.
const staticCacheCap = 64

// staticFactCache is the process-wide analysis-result cache with FIFO
// eviction and hit/miss/eviction accounting for the metrics layer.
type staticFactCache struct {
	mu        sync.Mutex
	facts     map[staticKey][]uint8 // nil facts when the analysis claimed nothing
	order     []staticKey           // insertion order, oldest first
	hits      uint64
	misses    uint64
	evictions uint64
}

var staticCache = &staticFactCache{facts: make(map[staticKey][]uint8)}

// staticFactsFor returns the per-text-word fact bits for im under prop,
// running the analyzer once per (image, propagator) pair in the steady
// state. The analysis itself runs outside the cache lock; a racing
// duplicate run is harmless (the result is deterministic) and cheaper
// than serializing every boot behind the analyzer.
func staticFactsFor(im *asm.Image, prop taint.Propagator) []uint8 {
	key := staticKey{im, prop}
	c := staticCache
	c.mu.Lock()
	if f, ok := c.facts[key]; ok {
		c.hits++
		c.mu.Unlock()
		return f
	}
	c.misses++
	c.mu.Unlock()

	var facts []uint8
	if res, err := analysis.Analyze(im, prop); err == nil && !res.Bailed {
		facts = res.Facts()
	}

	c.mu.Lock()
	if _, ok := c.facts[key]; !ok {
		c.facts[key] = facts
		c.order = append(c.order, key)
		if len(c.order) > staticCacheCap {
			old := c.order[0]
			c.order = c.order[1:]
			delete(c.facts, old)
			c.evictions++
		}
	}
	c.mu.Unlock()
	return facts
}

// FillStaticCacheMetrics exports the process-wide static-fact cache
// counters into r, alongside the per-machine subsystem counters that
// Machine.Metrics collects. The names keep the attack. prefix they were
// published under, so existing scrapes and benchmark reports read them
// unchanged.
func FillStaticCacheMetrics(r *metrics.Registry) {
	c := staticCache
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Counter("attack.static_cache.hits").Add(c.hits)
	r.Counter("attack.static_cache.misses").Add(c.misses)
	r.Counter("attack.static_cache.evictions").Add(c.evictions)
	r.Gauge("attack.static_cache.entries").Set(float64(len(c.facts)))
}
