package obs

import "testing"

// TestSplitMix64Golden pins the mixer's outputs. Fault-campaign run seeds,
// fuzzing slot seeds and backoff jitter all derive from it, and replay
// harnesses recompute fault run seeds with their own copy of the
// formula, so any change here silently changes every seeded report.
func TestSplitMix64Golden(t *testing.T) {
	for _, c := range []struct {
		name    string
		seed, i uint64
		want    uint64
	}{
		// Vigna's reference sequence for seed 0.
		{"seed 0 output 0", 0, 0, 0xe220a8397b1dcdaf},
		{"seed 0 output 1", 0, 1, 0x6e789e6aa1b965f4},
		{"seed 0 output 2", 0, 2, 0x06c45d188009454f},
		// Fault run seeds: (campaign seed, run index).
		{"fault seed 1 run 0", 1, 0, 0x910a2dec89025cc1},
		{"fault seed 1 run 599", 1, 599, 0xea4d28af05d10225},
		{"fault seed -7 run 3", 0xfffffffffffffff9, 3, 2940488688193949890},
		// Fuzz slot seeds: (session seed, generation<<20 | slot).
		{"fuzz seed 1 gen 2 slot 5", 1, 2<<20 | 5, 7607935495133899000},
		// Backoff jitter: (guard seed, index<<16 | attempt).
		{"jitter seed 1 index 3 attempt 2", 1, 3<<16 | 2, 0x83912077180dcb37},
		// Span IDs: the bare finalizer of x.
		{"span root seed 42", 42, 0, 0xbdd732262feb6e95},
	} {
		if got := SplitMix64(c.seed, c.i); got != c.want {
			t.Errorf("%s: SplitMix64(%#x, %#x) = %#x, want %#x", c.name, c.seed, c.i, got, c.want)
		}
	}
}
