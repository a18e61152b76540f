// Branch-edge coverage instrumentation for the fuzzing farm. An edge is
// one retired control transfer (branch taken or not, jump, jump-register),
// identified by its (source pc, destination pc) pair — exactly the
// predecoded-block transitions of the fast path, since blocks end at
// control transfers. Both engines record edges at the same retirement
// points, so a fixed input yields an identical hit map on the reference
// interpreter and the block fast path; the differential and fuzz
// determinism tests hold them to that.
//
// Coverage is off by default: the hot paths pay one predictable nil check
// per control transfer. SetCovMap attaches a caller-owned fixed-size map;
// recording is a shift-xor hash plus a saturating counter bump — no
// allocation, no locks (a map belongs to exactly one CPU at a time).
//
// A map is two arrays: the 64 KiB of hit counters and an 8 KiB bitset
// with one bit per counter, set on the counter's first bump from zero.
// A fuzz exec touches a few hundred edges, so reading the map back walks
// the bitset's set bits (Features) or popcounts its words (Edges) instead
// of scanning 65,536 counters: the cost follows the edges hit, not the
// table size. The bitset is written once per edge per run, so recording
// pays for it only on an edge's first traversal.
package cpu

import "math/bits"

// CovBits sizes the edge hit map; CovSize entries of one byte each. 64K
// entries keeps the whole map L2-resident while making collisions rare for
// the corpus programs (a few thousand static edges).
const (
	CovBits = 16
	CovSize = 1 << CovBits
)

// CovMap is a fixed-size branch-edge hit map: edge index -> saturating
// execution count, plus the set of indices whose count is nonzero. The
// zero value is ready to use; Reset recycles one between runs without
// reallocating.
type CovMap struct {
	counts [CovSize]uint8
	// seen has bit i set exactly when counts[i] != 0.
	seen [CovSize / 64]uint64
}

// Reset clears every counter and the touched-edge set.
func (m *CovMap) Reset() { *m = CovMap{} }

// covIndex hashes the edge from -> to to its map index. Addresses are
// word aligned, so the low two bits carry nothing; the multiply-xor
// spreads the remaining bits across the table.
func covIndex(from, to uint32) uint32 {
	h := (from >> 2) * 0x9e3779b1
	h ^= (to >> 2) * 0x85ebca6b
	h ^= h >> CovBits
	return h & (CovSize - 1)
}

// hit records one traversal of the edge from -> to. Counters saturate at
// 255 rather than wrap, keeping bucketization monotone in the true count.
func (m *CovMap) hit(from, to uint32) {
	i := covIndex(from, to)
	switch p := &m.counts[i]; *p {
	case 0xff:
	case 0:
		*p = 1
		m.seen[i/64] |= 1 << (i % 64)
	default:
		*p++
	}
}

// bucket collapses a hit count into its AFL-style magnitude class (0-7):
// 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+. A change of class — not every
// count change — is what the fuzzer treats as new behaviour, so loop
// iteration noise does not flood the corpus.
func bucket(n uint8) uint32 {
	switch {
	case n == 1:
		return 0
	case n == 2:
		return 1
	case n == 3:
		return 2
	case n < 8:
		return 3
	case n < 16:
		return 4
	case n < 32:
		return 5
	case n < 128:
		return 6
	}
	return 7
}

// Features appends the map's coverage features to buf and returns it, in
// ascending order. A feature is edgeIndex*8 + bucket(count): one value per
// touched edge, encoding both that the edge ran and how hard. Ordered
// extraction from a fixed-size table is what keeps feature sets comparable
// across runs, engines, and worker counts; walking the touched-edge bits
// low to high gives that order while visiting only the edges hit.
func (m *CovMap) Features(buf []uint32) []uint32 {
	for w, word := range m.seen {
		for word != 0 {
			i := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			buf = append(buf, uint32(i)*8+bucket(m.counts[i]))
		}
	}
	return buf
}

// Edges counts the distinct edge indices with a nonzero hit count.
func (m *CovMap) Edges() int {
	n := 0
	for _, word := range m.seen {
		n += bits.OnesCount64(word)
	}
	return n
}

// SetCovMap attaches (or, with nil, detaches) an edge coverage map. The
// caller owns the map and must not share one live map between CPUs.
// Coverage is not inherited across Fork: each forked run attaches its own.
// The machine's superblocks are dropped (heat is kept, so hot traces are
// taken up again on their next dispatch, on a shared table by reusing the
// published trace): attach/detach is a harness regime
// change, and re-specializing under the new regime keeps the trace tier
// free of any assumption about the old one. Superblocks record the same
// per-iteration edges the block path would, so coverage maps stay
// byte-identical across tiers.
func (c *CPU) SetCovMap(m *CovMap) {
	c.cov = m
	c.flushSuperblocks()
}

// CovEnabled reports whether an edge coverage map is attached.
func (c *CPU) CovEnabled() bool { return c.cov != nil }
