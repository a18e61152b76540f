package asm_test

import (
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/progs"
)

// scanSymbolAt is SymbolAt as a scan of the whole symbol map: the nearest
// preceding symbol that is not a '.'-label, the smallest name winning a
// tie on address.
func scanSymbolAt(im *asm.Image, addr uint32) (string, uint32) {
	bestName, bestAddr, found := "", uint32(0), false
	for name, a := range im.Symbols {
		if len(name) > 0 && name[0] == '.' {
			continue
		}
		if a <= addr && (!found || a > bestAddr || (a == bestAddr && name < bestName)) {
			bestName, bestAddr, found = name, a, true
		}
	}
	if !found {
		return "", addr
	}
	return bestName, addr - bestAddr
}

// TestSymbolAtMatchesScan holds the indexed SymbolAt to the scan at every
// text word of every corpus image, and at the address below the text.
func TestSymbolAtMatchesScan(t *testing.T) {
	for _, p := range progs.All() {
		im, err := p.Build()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		text := im.Segments[0]
		for addr := text.Addr - 4; addr < text.Addr+uint32(len(text.Data)); addr += 4 {
			gotName, gotOff := im.SymbolAt(addr)
			wantName, wantOff := scanSymbolAt(im, addr)
			if gotName != wantName || gotOff != wantOff {
				t.Fatalf("%s: SymbolAt(%#x) = %s+%#x, scan gives %s+%#x", p.Name, addr, gotName, gotOff, wantName, wantOff)
			}
		}
	}
}

// TestSymbolAtTies: '.'-labels never resolve, and of two symbols at one
// address the smaller name wins.
func TestSymbolAtTies(t *testing.T) {
	im, err := asm.AssembleString(`
	.text
	zeta:
	alpha:	nop
	.Lx:	nop
	`)
	if err != nil {
		t.Fatal(err)
	}
	if name, off := im.SymbolAt(im.Symbols["zeta"] + 4); name != "alpha" || off != 4 {
		t.Errorf("SymbolAt(alpha+4) = %s+%d, want alpha+4", name, off)
	}
}

// TestSymbolAtConcurrentFirstUse: goroutines that race to SymbolAt's first
// call on one image, as concurrent forks attributing alerts do, all read
// one index (run under -race for the sharing contract).
func TestSymbolAtConcurrentFirstUse(t *testing.T) {
	p, ok := progs.ByName("exp1")
	if !ok {
		t.Fatal("program exp1 missing")
	}
	built, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Build caches its images, so copy the fields into one not yet indexed.
	im := &asm.Image{Segments: built.Segments, Symbols: built.Symbols, Entry: built.Entry, DataEnd: built.DataEnd}
	text := im.Segments[0]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for addr := text.Addr; addr < text.Addr+uint32(len(text.Data)); addr += 4 {
				gotName, gotOff := im.SymbolAt(addr)
				if wantName, wantOff := scanSymbolAt(im, addr); gotName != wantName || gotOff != wantOff {
					t.Errorf("SymbolAt(%#x) = %s+%#x, scan gives %s+%#x", addr, gotName, gotOff, wantName, wantOff)
					return
				}
			}
		}()
	}
	wg.Wait()
}
