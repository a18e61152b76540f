// Package asm implements a two-pass assembler for the simulator's ISA. It
// supports the classic MIPS-style source format: .text/.data sections,
// labels, data directives (.word/.half/.byte/.ascii/.asciiz/.space/.align),
// pseudo-instructions (li/la/move/b/beqz/...), and symbolic operands. The
// output is a loadable Image with a symbol table used by the CPU's alert
// reporter to attribute detections to functions (e.g. "sw $21,0($3) in
// vfprintf", as in the paper's Table 2).
package asm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/isa"
)

// Default segment layout, mirroring the MIPS/SimpleScalar convention the
// paper's addresses come from (text around 0x004xxxxx, data at 0x100xxxxx).
const (
	TextBase  = 0x00400000
	DataBase  = 0x10000000
	StackTop  = 0x7FFFF000 // initial $sp; stack grows down
	StackSize = 1 << 20    // reserved stack region for layout queries
)

// Segment is one contiguous run of initialized memory in an image.
type Segment struct {
	Addr uint32
	Data []byte
}

// Image is a fully linked, loadable program.
type Image struct {
	Segments []Segment
	Symbols  map[string]uint32
	Entry    uint32
	// DataEnd is the first address past the data segment; the kernel
	// places the program break (heap start) here.
	DataEnd uint32

	// symIdx is SymbolAt's index, built once on first use: one entry per
	// symbol address, in address order.
	symOnce sync.Once
	symIdx  []SymbolEntry
}

// SymbolAt resolves addr to the nearest preceding symbol, returning its
// name and the offset of addr within it. Used for human-readable alerts.
// Compiler-internal labels (names starting with '.') never resolve, and of
// several symbols at one address the smallest name wins. The first call
// indexes the symbol table, which must not change afterwards; any number
// of goroutines may call SymbolAt concurrently.
func (im *Image) SymbolAt(addr uint32) (string, uint32) {
	im.symOnce.Do(im.indexSymbols)
	i := sort.Search(len(im.symIdx), func(i int) bool { return im.symIdx[i].Addr > addr })
	if i == 0 {
		return "", addr
	}
	e := im.symIdx[i-1]
	return e.Name, addr - e.Addr
}

// indexSymbols builds symIdx: the symbols SymbolAt may name, keeping the
// smallest name at each address.
func (im *Image) indexSymbols() {
	for _, e := range im.SortedSymbols() {
		if len(e.Name) > 0 && e.Name[0] == '.' {
			continue // compiler-internal label
		}
		if n := len(im.symIdx); n == 0 || im.symIdx[n-1].Addr != e.Addr {
			im.symIdx = append(im.symIdx, e)
		}
	}
}

// SortedSymbols returns the symbol table as (name, addr) pairs in address
// order, for listings.
func (im *Image) SortedSymbols() []SymbolEntry {
	out := make([]SymbolEntry, 0, len(im.Symbols))
	for n, a := range im.Symbols {
		out = append(out, SymbolEntry{Name: n, Addr: a})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SymbolEntry is one row of a symbol listing.
type SymbolEntry struct {
	Name string
	Addr uint32
}

// Error is an assembly diagnostic tied to a source position.
type Error struct {
	File string
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

func errf(file string, line int, format string, args ...any) error {
	return &Error{File: file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// TextListing disassembles the text segment, returning one line per word:
// "00400000:  8fbf0004  lw $ra,4($sp)". Words that do not decode are
// rendered as data.
func (im *Image) TextListing() []string {
	if len(im.Segments) == 0 {
		return nil
	}
	text := im.Segments[0]
	out := make([]string, 0, len(text.Data)/4)
	for off := 0; off+4 <= len(text.Data); off += 4 {
		addr := text.Addr + uint32(off)
		word := binary.LittleEndian.Uint32(text.Data[off:])
		in, err := isa.Decode(word)
		if err != nil {
			out = append(out, fmt.Sprintf("%08x:  %08x  <data>", addr, word))
			continue
		}
		out = append(out, fmt.Sprintf("%08x:  %08x  %s", addr, word, isa.Disassemble(in, addr)))
	}
	return out
}
