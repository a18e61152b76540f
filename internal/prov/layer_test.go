package prov

import (
	"math/rand"
	"reflect"
	"slices"
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

// scanOrigins is Origins as a recursive walk with a visited map and a
// sort by origin index: the definition the iterative walk must match.
func scanOrigins(t *Table, l Label) []Origin {
	seen := map[Label]bool{}
	var ids []int32
	var visit func(Label)
	visit = func(l Label) {
		if l == 0 || seen[l] {
			return
		}
		seen[l] = true
		if n := t.node(l); n.origin >= 0 {
			ids = append(ids, n.origin)
		} else {
			visit(n.a)
			visit(n.b)
		}
	}
	if l != 0 && int(l) <= t.NumLabels() {
		visit(l)
	}
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	out := make([]Origin, len(ids))
	for i, id := range ids {
		out[i] = t.origin(id)
	}
	return out
}

// TestOriginsMatchScan resolves every label of deep and shared DAGs —
// a long union chain, a ladder of diamonds whose rungs share every
// operand, and random DAGs layered three deep — and holds Origins to
// scanOrigins. The walks interleave across labels and tables of different
// sizes, so a visit mark left over from an earlier walk would show.
func TestOriginsMatchScan(t *testing.T) {
	src := func(tb *Table, i int) Label {
		return tb.Source(Origin{Syscall: "read", Offset: uint64(i), Len: 1})
	}
	check := func(name string, tb *Table) {
		t.Helper()
		for l := Label(tb.NumLabels() + 1); l > 0; l-- {
			if got, want := tb.Origins(l), scanOrigins(tb, l); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: label %d resolves to %v, scan gives %v", name, l, got, want)
			}
		}
	}

	chain := NewTable()
	acc := src(chain, 0)
	for i := 1; i < 500; i++ {
		acc = chain.Union(src(chain, i), acc)
	}
	check("chain", chain)
	if got := len(chain.Origins(acc)); got != 500 {
		t.Fatalf("chain head resolves to %d origins, want 500", got)
	}

	ladder := NewTable()
	a, b := src(ladder, 0), src(ladder, 1)
	for i := 0; i < 200; i++ {
		l, r := ladder.Union(a, b), ladder.Union(b, src(ladder, i+2))
		a, b = ladder.Union(l, r), r
	}
	check("ladder", ladder)

	rng := rand.New(rand.NewSource(7))
	grow := func(tb *Table, n int) {
		for i := 0; i < n; i++ {
			if k := tb.NumLabels(); k == 0 || rng.Intn(3) == 0 {
				src(tb, i)
			} else {
				tb.Union(Label(1+rng.Intn(k)), Label(1+rng.Intn(k)))
			}
		}
	}
	base := NewTable()
	grow(base, 600)
	mid := base.Layer()
	grow(mid, 400)
	top := mid.Layer()
	grow(top, 300)
	for _, c := range []struct {
		name string
		tb   *Table
	}{{"top", top}, {"base", base}, {"mid", mid}, {"chain again", chain}} {
		check(c.name, c.tb)
	}
}
