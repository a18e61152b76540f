package prov

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// twin is a table under test beside a flat model: a Clone taken when the
// table was forked, fed the same operations since.
type twin struct {
	t, flat *Table
}

// step applies one random operation to both tables and fails if they
// hand out different labels.
func (w twin) step(tb *testing.T, rng *rand.Rand, i int) {
	tb.Helper()
	n := w.flat.NumLabels()
	var got, want Label
	if n == 0 || rng.Intn(4) == 0 {
		o := Origin{Syscall: "read", FD: int32(rng.Intn(3)), Offset: uint64(i), Len: uint32(1 + rng.Intn(8)), Instrs: uint64(i)}
		got, want = w.t.Source(o), w.flat.Source(o)
	} else {
		// Skew towards old labels so unions hit memo entries below the
		// fork point as well as above it.
		a, b := Label(rng.Intn(n+1)), Label(rng.Intn(n+1))
		if rng.Intn(2) == 0 {
			a = Label(rng.Intn(n/2 + 1))
		}
		got, want = w.t.Union(a, b), w.flat.Union(a, b)
	}
	if got != want {
		tb.Fatalf("op %d: layered table gave label %d, flat clone %d", i, got, want)
	}
}

// same fails unless both tables resolve every label to the same origins.
func (w twin) same(tb *testing.T, what string) {
	tb.Helper()
	if w.t.NumLabels() != w.flat.NumLabels() || w.t.NumOrigins() != w.flat.NumOrigins() {
		tb.Fatalf("%s: %d labels / %d origins, flat clone %d / %d", what,
			w.t.NumLabels(), w.t.NumOrigins(), w.flat.NumLabels(), w.flat.NumOrigins())
	}
	for l := Label(1); int(l) <= w.flat.NumLabels(); l++ {
		if g, f := w.t.Origins(l), w.flat.Origins(l); !reflect.DeepEqual(g, f) {
			tb.Fatalf("%s: label %d resolves to %v, flat clone to %v", what, l, g, f)
		}
	}
}

// TestLayerMatchesFlatClone runs random streams of sources and unions on
// a table, freezes it, layers forks on it — and forks on those forks —
// and runs each on against a flat clone of its parent. Labels, counts and
// Origins agree at every layer, siblings and parents never see each
// other's additions, and Clone of a deep layer equals the flat model.
func TestLayerMatchesFlatClone(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := twin{NewTable(), NewTable()}
		for i := 0; i < 60; i++ {
			root.step(t, rng, i)
		}
		// Each generation layers two siblings on one frozen parent and
		// runs both; the next generation forks the first of them.
		parent := root
		for gen := 0; gen < 4; gen++ {
			before := parent.t.NumLabels()
			kids := []twin{
				{parent.t.Layer(), parent.flat.Clone()},
				{parent.t.Layer(), parent.flat.Clone()},
			}
			for i := 0; i < 80; i++ {
				kids[rng.Intn(2)].step(t, rng, 1000*gen+i)
			}
			for _, k := range kids {
				k.same(t, "fork")
			}
			if parent.t.NumLabels() != before {
				t.Fatalf("seed %d gen %d: a fork grew its parent", seed, gen)
			}
			parent.same(t, "parent")
			flat := twin{kids[0].t.Clone(), kids[0].flat}
			flat.same(t, "Clone of a layer")
			if flat.t.parent != nil {
				t.Fatal("Clone kept a parent")
			}
			parent = kids[0]
		}
	}
}

// TestLayersReadOneParentConcurrently: forks layered on one frozen table
// union its labels from goroutines of their own — reading its nodes,
// origins and memo at once — and each matches a private flat clone (run
// under -race for the sharing contract).
func TestLayersReadOneParentConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	root := twin{NewTable(), NewTable()}
	for i := 0; i < 200; i++ {
		root.step(t, rng, i)
	}
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		w := twin{root.t.Layer(), root.flat.Clone()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g))
			for i := 0; i < 300; i++ {
				w.step(t, rng, i)
			}
			w.same(t, "concurrent fork")
		}()
	}
	wg.Wait()
}
