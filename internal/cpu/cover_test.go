package cpu

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
)

// TestCovMapHitAndBuckets pins the edge-hash accounting: hits accumulate
// and saturate, Reset clears, and Features reports AFL-style bucketized
// feature IDs in ascending order.
func TestCovMapHitAndBuckets(t *testing.T) {
	var cm CovMap
	if cm.Edges() != 0 {
		t.Fatalf("fresh map reports %d edges", cm.Edges())
	}
	cm.hit(0x400000, 0x400010)
	cm.hit(0x400000, 0x400010)
	cm.hit(0x400020, 0x400000) // a different edge
	if cm.Edges() != 2 {
		t.Errorf("edges = %d, want 2", cm.Edges())
	}
	feats := cm.Features(nil)
	if len(feats) != 2 {
		t.Fatalf("features = %v, want 2 entries", feats)
	}
	for i := 1; i < len(feats); i++ {
		if feats[i] <= feats[i-1] {
			t.Errorf("features not strictly ascending: %v", feats)
		}
	}
	// The twice-hit edge must land in the "2" bucket (bucket index 1),
	// the once-hit edge in the "1" bucket (bucket index 0).
	buckets := map[uint32]int{}
	for _, ft := range feats {
		buckets[ft%8]++
	}
	if buckets[0] != 1 || buckets[1] != 1 {
		t.Errorf("bucket distribution %v, want one edge in bucket 0 and one in bucket 1", buckets)
	}

	// Saturation: hammering one edge must neither wrap the counter nor
	// invent features beyond the top bucket.
	for i := 0; i < 1000; i++ {
		cm.hit(0x400000, 0x400010)
	}
	feats = cm.Features(nil)
	if len(feats) != 2 {
		t.Errorf("saturated map reports %v, want still 2 features", feats)
	}

	cm.Reset()
	if cm.Edges() != 0 || len(cm.Features(nil)) != 0 {
		t.Error("Reset did not clear the map")
	}
}

// TestBucketClasses pins the hit-count → bucket mapping.
func TestBucketClasses(t *testing.T) {
	cases := []struct {
		n    uint8
		want uint32
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 3}, {7, 3},
		{8, 4}, {15, 4}, {16, 5}, {31, 5}, {32, 6}, {127, 6}, {128, 7}, {255, 7},
	}
	for _, c := range cases {
		if got := bucket(c.n); got != c.want {
			t.Errorf("bucket(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestForkDropsCovMap: coverage maps are per-fork scratch state; a forked
// CPU must come up with coverage disabled so concurrent forks never share
// a map.
func TestForkDropsCovMap(t *testing.T) {
	m := mem.New()
	c := New(Config{Bus: m, Handler: &testHandler{memory: m}})
	var cm CovMap
	c.SetCovMap(&cm)
	if !c.CovEnabled() {
		t.Fatal("SetCovMap did not enable coverage")
	}
	n := c.Fork(m.Fork(), &testHandler{memory: m})
	if n.CovEnabled() {
		t.Error("forked CPU inherited the parent's coverage map")
	}
	if !c.CovEnabled() {
		t.Error("forking disabled the parent's coverage")
	}
}

// naiveFeatures and naiveEdges are the byte-scan reference: every counter
// in index order, no touched-edge summary.
func naiveFeatures(m *CovMap) []uint32 {
	var out []uint32
	for i, n := range m.counts {
		if n != 0 {
			out = append(out, uint32(i)*8+bucket(n))
		}
	}
	return out
}

func naiveEdges(m *CovMap) int {
	n := 0
	for _, c := range m.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// edgeTo returns a (from, to) pair whose hash lands on index want, so a
// test can aim hits at the table's first and last entries.
func edgeTo(t *testing.T, want uint32) (uint32, uint32) {
	t.Helper()
	for from := uint32(0x400000); from < 0x400000+4<<20; from += 4 {
		if covIndex(from, 0x400000) == want {
			return from, 0x400000
		}
	}
	t.Fatalf("no edge hashes to %d", want)
	return 0, 0
}

// checkAgainstNaive holds the map's touched-edge summary to the counters:
// Features and Edges match the byte-scan reference, and seen has a bit
// exactly where a counter is nonzero.
func checkAgainstNaive(t *testing.T, what string, m *CovMap) {
	t.Helper()
	got, want := m.Features(nil), naiveFeatures(m)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Features = %d entries, reference %d (first diff in %v vs %v)",
			what, len(got), len(want), got[:min(len(got), 8)], want[:min(len(want), 8)])
	}
	if g, w := m.Edges(), naiveEdges(m); g != w {
		t.Fatalf("%s: Edges = %d, reference %d", what, g, w)
	}
	for i, n := range m.counts {
		if bit := m.seen[i/64]>>(i%64)&1 == 1; bit != (n != 0) {
			t.Fatalf("%s: index %d has count %d but seen bit %v", what, i, n, bit)
		}
	}
}

// TestCovMapMatchesByteScan: on seeded random hit streams, the bitset
// walk reports exactly what a full counter scan would — including edges
// at indices 0 and CovSize-1, counters driven to 255 and past it, the
// empty map, appending to a non-empty buffer, and reuse after a Reset
// that follows a partial run.
func TestCovMapMatchesByteScan(t *testing.T) {
	var m CovMap
	checkAgainstNaive(t, "empty", &m)
	if f := m.Features(nil); len(f) != 0 {
		t.Fatalf("empty map has features %v", f)
	}

	firstFrom, firstTo := edgeTo(t, 0)
	lastFrom, lastTo := edgeTo(t, CovSize-1)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		// A few hundred distinct edges per run, like a fuzz exec, with
		// hit counts spread over every bucket.
		edges := 50 + rng.Intn(600)
		for e := 0; e < edges; e++ {
			from := 0x400000 + uint32(rng.Intn(1<<16))*4
			to := 0x400000 + uint32(rng.Intn(1<<16))*4
			for n := rng.Intn(1 << uint(rng.Intn(9))); n >= 0; n-- {
				m.hit(from, to)
			}
		}
		for n := rng.Intn(300); n >= 0; n-- {
			m.hit(firstFrom, firstTo)
		}
		for n := 0; n < 255+rng.Intn(50); n++ {
			m.hit(lastFrom, lastTo)
		}
		checkAgainstNaive(t, "full run", &m)
		if m.counts[0] == 0 || m.counts[CovSize-1] != 0xff {
			t.Fatalf("boundary edges not recorded: counts[0]=%d counts[last]=%d",
				m.counts[0], m.counts[CovSize-1])
		}
		buf := m.Features([]uint32{7})
		if buf[0] != 7 || !slices.Equal(buf[1:], naiveFeatures(&m)) {
			t.Fatal("Features did not append to the caller's buffer")
		}

		// A partial run after Reset must not see the previous run's edges.
		m.Reset()
		checkAgainstNaive(t, "after reset", &m)
		for e := rng.Intn(40); e >= 0; e-- {
			m.hit(0x400000+uint32(rng.Intn(1<<16))*4, 0x400000+uint32(rng.Intn(1<<16))*4)
		}
		checkAgainstNaive(t, "partial run", &m)
		m.Reset()
	}
}

// BenchmarkCovMapFeatures times reading one exec's features back: sparse
// is a typical fuzz exec (about 400 edges), dense touches every entry.
func BenchmarkCovMapFeatures(b *testing.B) {
	for _, bc := range []struct {
		name  string
		edges int
	}{{"sparse", 400}, {"dense", CovSize}} {
		b.Run(bc.name, func(b *testing.B) {
			var m CovMap
			rng := rand.New(rand.NewSource(1))
			for m.Edges() < bc.edges {
				m.hit(0x400000+uint32(rng.Intn(1<<20))*4, 0x400000+uint32(rng.Intn(1<<20))*4)
			}
			buf := make([]uint32, 0, CovSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = m.Features(buf[:0])
			}
		})
	}
}
