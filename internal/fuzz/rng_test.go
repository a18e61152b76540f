package fuzz

import (
	"math/rand"
	"testing"
)

// TestLazySourceMatchesMathRand holds lazySource to rand.NewSource over
// 700 mixed Uint64/Int63 draws per seed — past the hand-over at rngTap —
// on the seeds where seeding normalizes (0, multiples of 2³¹−1, the
// substitute for 0, values far outside 31 bits) and on 2000 random ones.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, seedZero, -seedZero, 1 << 62, -1 << 62, 1<<63 - 1, -1 << 63}
	for k := int64(1); k <= 4; k++ {
		seeds = append(seeds, k*lehmerM, -k*lehmerM, k*lehmerM+1, k*lehmerM-1)
	}
	seeds = append(seeds, 1<<62/lehmerM*lehmerM, -(1 << 62 / lehmerM * lehmerM))
	pick := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := newLazySource(seed)
		for d := 0; d < 700; d++ {
			var w, g uint64
			if (seed>>uint(d%61))&1 == 0 {
				w, g = want.Uint64(), got.Uint64()
			} else {
				w, g = uint64(want.Int63()), uint64(got.Int63())
			}
			if w != g {
				t.Fatalf("seed %d draw %d: lazy source gave %#x, rand.NewSource %#x", seed, d+1, g, w)
			}
		}
	}
}

// BenchmarkCandidate is one mutated candidate from a corpus of the
// target's seeds: the slot's source, the Rand over it and the havoc run.
func BenchmarkCandidate(b *testing.B) {
	targets, err := PrepareTargets(Config{Targets: []string{"wuftpd-site-exec"}})
	if err != nil {
		b.Fatal(err)
	}
	t := targets[0]
	g := genState{seed: 1, execs: len(t.Seeds)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.gen = i >> 6
		_ = g.candidate(t, i&63)
	}
}
