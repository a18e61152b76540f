package mem

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/prov"
	"repro/internal/taint"
)

// labelTwin is one memory under test beside a twin that gets the same
// data writes and no labels, and the map the label shadow must match.
type labelTwin struct {
	m, plain *Memory
	model    map[uint32]prov.Label
}

func (w *labelTwin) fork() *labelTwin {
	model := make(map[uint32]prov.Label, len(w.model))
	for k, v := range w.model {
		model[k] = v
	}
	return &labelTwin{m: w.m.Fork(), plain: w.plain.Fork(), model: model}
}

func (w *labelTwin) setLabel(addr uint32, l prov.Label) {
	w.m.SetProvLabel(addr, l)
	if l == 0 {
		delete(w.model, addr&^3)
	} else {
		w.model[addr&^3] = l
	}
}

// check holds the shadow to the model over the whole address window, and
// the data side to the unlabelled twin: labels change no byte, no page
// and no copy-on-write count.
func (w *labelTwin) check(t *testing.T, step int, base, span uint32) {
	t.Helper()
	for a := base; a < base+span; a += 4 {
		if got, want := w.m.ProvLabel(a+uint32(step)&3), w.model[a]; got != want {
			t.Fatalf("step %d: label at %#x = %d, model %d", step, a, got, want)
		}
	}
	if got := w.m.ProvWords(); got != len(w.model) {
		t.Fatalf("step %d: ProvWords = %d, model holds %d", step, got, len(w.model))
	}
	if w.m.ResidentBytes() != w.plain.ResidentBytes() || w.m.COWFaults() != w.plain.COWFaults() ||
		step%25 == 0 && w.m.Fingerprint() != w.plain.Fingerprint() {
		t.Fatalf("step %d: labels changed the data side (resident %d vs %d, cow %d vs %d)", step,
			w.m.ResidentBytes(), w.plain.ResidentBytes(), w.m.COWFaults(), w.plain.COWFaults())
	}
}

// TestProvLabelsMatchMapModel runs random streams of labelled word
// stores, partial-word merges, label clears, unlabelled writes and forks
// against a map per memory. Every memory — the first, its forks, forks of
// forks — keeps exactly its own model's labels whatever its siblings and
// its parent write after the fork, and ProvWords tracks the model's size.
func TestProvLabelsMatchMapModel(t *testing.T) {
	const base, span = 0x10000, 3 * PageSize
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		first := &labelTwin{m: New(), plain: New(), model: map[uint32]prov.Label{}}
		first.m.EnableProv()
		live := []*labelTwin{first}
		for step := 0; step < 500; step++ {
			w := live[rng.Intn(len(live))]
			addr := base + uint32(rng.Intn(span))&^3
			l := prov.Label(1 + rng.Intn(50))
			switch op := rng.Intn(10); {
			case op < 4: // a tainted word store labels the word
				for _, mm := range []*Memory{w.m, w.plain} {
					mm.PutWord(addr, uint32(step), taint.Word)
				}
				w.setLabel(addr, l)
			case op < 6: // a tainted byte store merges into the word's label
				a := addr + uint32(rng.Intn(4))
				for _, mm := range []*Memory{w.m, w.plain} {
					mm.StoreByte(a, byte(step), true)
				}
				w.setLabel(a, w.m.ProvLabel(a)^l|1)
			case op < 7: // a label clear on a word that holds data
				for _, mm := range []*Memory{w.m, w.plain} {
					mm.PutWord(addr, uint32(step), taint.Word)
				}
				w.setLabel(addr, 0)
			case op < 9: // an unlabelled write: a page fault, no label change
				for _, mm := range []*Memory{w.m, w.plain} {
					mm.PutWord(addr, uint32(step), taint.None)
				}
			default:
				if len(live) < 8 {
					live = append(live, w.fork())
				}
			}
			// The memory just written every step; all of them, so a write
			// that leaked into a sibling or a parent shows, every 25.
			w.check(t, step, base, span)
			for _, x := range live {
				if step%25 == 0 {
					x.check(t, step, base, span)
				}
			}
		}
	}
}

// TestProvLabelsConcurrentForks: forks of one frozen memory write labels
// on goroutines of their own while reading the words they share; each
// sees only its own writes (run under -race for the sharing contract).
func TestProvLabelsConcurrentForks(t *testing.T) {
	snap := New()
	snap.EnableProv()
	for a := uint32(0x4000); a < 0x4000+2*PageSize; a += 4 {
		snap.PutWord(a, a, taint.Word)
		snap.SetProvLabel(a, prov.Label(a>>2))
	}
	snap.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := snap.Fork()
			for a := uint32(0x4000); a < 0x4000+2*PageSize; a += 4 {
				if a%(8*uint32(g+1)) == 0 {
					f.PutWord(a, 0, taint.Word)
					f.SetProvLabel(a, prov.Label(1000+g))
				}
			}
			for a := uint32(0x4000); a < 0x4000+2*PageSize; a += 4 {
				want := prov.Label(a >> 2)
				if a%(8*uint32(g+1)) == 0 {
					want = prov.Label(1000 + g)
				}
				if got := f.ProvLabel(a); got != want {
					t.Errorf("fork %d: label at %#x = %d, want %d", g, a, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if snap.ProvWords() != 2*PageSize/4 || snap.ProvLabel(0x4000) != 0x4000>>2 {
		t.Errorf("the snapshot's labels changed under its forks")
	}
}
