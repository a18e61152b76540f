package fuzz

import "math/rand"

// math/rand's default source is an additive lagged Fibonacci generator
// over a 607-word register: seeding fills every word from a Lehmer
// stream (x ← 48271·x mod 2³¹−1) XORed with rngCooked, and draw k
// returns, and stores back, the sum of the words at feed and tap. Seeding
// all 607 words costs more than the few dozen draws one mutation makes,
// so lazySource computes only the words it reads.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lehmerM  = 1<<31 - 1
	lehmerA  = 48271
	rngSteps = 20 + 3*rngLen // Lehmer steps one full seeding takes
	// seedZero is what math/rand seeds with in place of 0 (mod 2³¹−1).
	seedZero = 89482311
)

// lehmerPow[n] is 48271ⁿ mod 2³¹−1: the Lehmer state n steps past the
// seed is seed·lehmerPow[n], so any state word is reachable by one jump.
var lehmerPow = func() (p [rngSteps + 1]uint64) {
	p[0] = 1
	for n := 1; n <= rngSteps; n++ {
		p[n] = mulmod(p[n-1], lehmerA)
	}
	return p
}()

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹, folding the 62-bit
// product on the Mersenne modulus.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerM + p>>31
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// lazySource yields exactly the stream of rand.NewSource(seed). Draw k
// (from 1) sums words rngLen-rngTap-k and rngLen-k, so the first rngTap
// draws read only words as seeding wrote them, each computed on demand;
// draw rngTap+1 would read a word draw 1 stored back, so from there on it
// hands over to a real rand.NewSource advanced to the same point.
type lazySource struct {
	seed  int64
	x0    uint64 // the Lehmer seed, in [1, 2³¹−1)
	draws int
	rest  rand.Source64 // nil until draw rngTap+1
}

// newLazySource returns a source seeded like rand.NewSource(seed).
func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed resets the source to rand.NewSource(seed)'s initial state.
func (s *lazySource) Seed(seed int64) {
	x := seed % lehmerM
	if x < 0 {
		x += lehmerM
	}
	if x == 0 {
		x = seedZero
	}
	*s = lazySource{seed: seed, x0: uint64(x)}
}

// word returns seeded register word i: three consecutive Lehmer states,
// starting 21+3i steps past the seed, packed and XORed with rngCooked[i].
func (s *lazySource) word(i int) int64 {
	x := mulmod(s.x0, lehmerPow[21+3*i])
	u := int64(x) << 40
	x = mulmod(x, lehmerA)
	u ^= int64(x) << 20
	x = mulmod(x, lehmerA)
	return u ^ int64(x) ^ rngCooked[i]
}

// Uint64 returns the next value of the rand.NewSource(seed) stream.
func (s *lazySource) Uint64() uint64 {
	if s.rest != nil {
		return s.rest.Uint64()
	}
	if s.draws == rngTap {
		src := rand.NewSource(s.seed).(rand.Source64)
		for k := 0; k < rngTap; k++ {
			src.Uint64()
		}
		s.rest = src
		return src.Uint64()
	}
	s.draws++
	k := s.draws
	return uint64(s.word(rngLen-rngTap-k) + s.word(rngLen-k))
}

// Int63 returns the next value as math/rand's source does: the low 63
// bits of Uint64.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
