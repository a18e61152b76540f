// Package mem provides the simulator's physical memory: a sparse paged
// 32-bit address space in which every byte carries a taintedness bit, per
// the extended memory model of the DSN 2005 paper (Section 4.1).
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/taint"
)

// PageSize is the size of one allocation unit of the sparse memory.
const PageSize = 4096

const pageShift = 12

// page is one resident page: data bytes plus a taint bit per byte. refs
// counts how many sharers beyond a single exclusive owner may still hold
// the page: 0 means exclusively owned (writes go in place), anything else
// means the page is frozen and a writer must take a private copy first
// (see Memory.Freeze and Memory.Fork). refs is only ever touched with
// atomics because concurrent forks of one frozen snapshot adjust it from
// many goroutines; data and taint of a page with refs != 0 are immutable,
// so they need no synchronization.
type page struct {
	data  [PageSize]byte
	taint [PageSize / 8]byte // bitset, 1 bit per byte
	refs  int32

	// labels is the page's provenance label words (prov.go), nil until
	// the first label write; frozen, shared and copied with the page.
	labels *pageLabels

	// anyTaint is a sticky clean-page flag: false guarantees every taint
	// bit on the page is clear, so span scans can skip the bitset
	// entirely. It is set on every taint-setting write and never cleared
	// by untainting (a page that was ever tainted keeps scanning its
	// bitset) — conservative staleness costs a scan, never soundness.
	anyTaint bool
}

func (p *page) tainted(off uint32) bool {
	return p.taint[off>>3]&(1<<(off&7)) != 0
}

func (p *page) setTaint(off uint32, t bool) {
	if t {
		p.taint[off>>3] |= 1 << (off & 7)
		p.anyTaint = true
	} else {
		p.taint[off>>3] &^= 1 << (off & 7)
	}
}

// spanTainted reports whether any taint bit in [off, end) is set, scanning
// the bitset a 64-bit lane at a time. Callers gate on p.anyTaint first and
// guarantee 0 <= off < end <= PageSize.
func (p *page) spanTainted(off, end uint32) bool {
	i0, i1 := off>>6, (end-1)>>6
	if i0 == i1 {
		w := binary.LittleEndian.Uint64(p.taint[i0*8:])
		mask := (^uint64(0) >> (64 - (end - off))) << (off & 63)
		return w&mask != 0
	}
	if binary.LittleEndian.Uint64(p.taint[i0*8:])>>(off&63) != 0 {
		return true
	}
	for i := i0 + 1; i < i1; i++ {
		if binary.LittleEndian.Uint64(p.taint[i*8:]) != 0 {
			return true
		}
	}
	w := binary.LittleEndian.Uint64(p.taint[i1*8:])
	if tail := end & 63; tail != 0 {
		w &= ^uint64(0) >> (64 - tail)
	}
	return w != 0
}

// countRun returns the number of set taint bits in [off, end), counting a
// 64-bit lane at a time. Same preconditions as spanTainted.
func (p *page) countRun(off, end uint32) int {
	i0, i1 := off>>6, (end-1)>>6
	if i0 == i1 {
		w := binary.LittleEndian.Uint64(p.taint[i0*8:])
		mask := (^uint64(0) >> (64 - (end - off))) << (off & 63)
		return bits.OnesCount64(w & mask)
	}
	c := bits.OnesCount64(binary.LittleEndian.Uint64(p.taint[i0*8:]) >> (off & 63))
	for i := i0 + 1; i < i1; i++ {
		c += bits.OnesCount64(binary.LittleEndian.Uint64(p.taint[i*8:]))
	}
	w := binary.LittleEndian.Uint64(p.taint[i1*8:])
	if tail := end & 63; tail != 0 {
		w &= ^uint64(0) >> (64 - tail)
	}
	return c + bits.OnesCount64(w)
}

// taintRun sets every taint bit in [off, end), a bitset byte at a time.
func (p *page) taintRun(off, end uint32) {
	p.anyTaint = true
	b0, b1 := off>>3, (end-1)>>3
	if b0 == b1 {
		p.taint[b0] |= byte(0xFF>>(8-(end-off))) << (off & 7)
		return
	}
	p.taint[b0] |= 0xFF << (off & 7)
	for i := b0 + 1; i < b1; i++ {
		p.taint[i] = 0xFF
	}
	if tail := end & 7; tail != 0 {
		p.taint[b1] |= 0xFF >> (8 - tail)
	} else {
		p.taint[b1] = 0xFF
	}
}

// clearRun clears every taint bit in [off, end), a bitset byte at a time.
func (p *page) clearRun(off, end uint32) {
	b0, b1 := off>>3, (end-1)>>3
	if b0 == b1 {
		p.taint[b0] &^= byte(0xFF>>(8-(end-off))) << (off & 7)
		return
	}
	p.taint[b0] &^= 0xFF << (off & 7)
	for i := b0 + 1; i < b1; i++ {
		p.taint[i] = 0
	}
	if tail := end & 7; tail != 0 {
		p.taint[b1] &^= 0xFF >> (8 - tail)
	} else {
		p.taint[b1] = 0
	}
}

// AlignmentError reports a misaligned halfword or word access; the CPU
// converts it into a machine fault.
type AlignmentError struct {
	Addr  uint32
	Width int
}

// Error implements the error interface.
func (e *AlignmentError) Error() string {
	return fmt.Sprintf("unaligned %d-byte access at %#08x", e.Width, e.Addr)
}

// LimitError reports that a write needed a fresh page beyond the resident
// limit set with SetResidentLimit — the containment for guests that grow
// their footprint without bound (a stack grower, a corrupted allocator).
// It is raised as a panic from deep inside the write path, because the
// inlined store fast paths have no error return; the CPU's run loops
// recover it into an ordinary error at the machine boundary.
type LimitError struct {
	Resident int // bytes resident when the limit tripped
	Limit    int // the configured limit, in bytes
}

// Error implements the error interface.
func (e *LimitError) Error() string {
	return fmt.Sprintf("guest memory limit exceeded: %d bytes resident, limit %d", e.Resident, e.Limit)
}

// Memory is a sparse, byte-taint-shadowed 32-bit address space. Reads of
// never-written pages return zero, untainted bytes (fresh pages are clean).
// Memory is little-endian.
//
// A single Memory is not safe for concurrent use — the simulated machine
// is single-core. Concurrency enters only through Fork: a frozen Memory
// (one that has not executed since Freeze) may be forked from many
// goroutines at once, and the resulting Memories may then run on separate
// goroutines, sharing pages copy-on-write without ever racing.
type Memory struct {
	pages map[uint32]*page

	// lastPN/lastPage cache the most recently read resident page — guest
	// accesses are strongly page-local. The cached pointer can go stale in
	// exactly one way: a copy-on-write fault replacing the page with a
	// private copy. cowCopy refreshes the cache at that moment, so readers
	// never observe a superseded page.
	lastPN   uint32
	lastPage *page

	// wPN/wPage cache the most recently written page, which is guaranteed
	// exclusively owned (refs == 0): write fast paths that hit this cache
	// skip the copy-on-write check entirely. Freeze resets it, because
	// freezing is precisely what revokes in-place write permission.
	wPN   uint32
	wPage *page

	// frozen records that every resident page had refs >= 1 when Freeze
	// last ran and no write or page allocation has happened since; it lets
	// concurrent Fork calls skip Freeze's page scan (and its stores).
	frozen bool

	// taintedStores counts bytes written with taint set, an input to the
	// paper's Section 5.4 software-overhead estimate.
	taintedStores uint64

	// cowFaults counts pages this Memory privately copied on write faults.
	cowFaults uint64

	// maxPages caps the resident page count (0 = unlimited); exceeding it
	// panics with *LimitError from pageForWrite. Copy-on-write faults are
	// exempt — they replace a shared page, never grow the footprint.
	maxPages int

	// provOn enables the word-granular provenance label shadow kept on
	// the pages (see prov.go), and provWords counts the words carrying a
	// label. Labels are not part of Fingerprint: they are derived
	// metadata, and provenance on/off must not change what memory-equality
	// tests observe.
	provOn    bool
	provWords int
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{
		pages:  make(map[uint32]*page, 64),
		lastPN: ^uint32(0),
		wPN:    ^uint32(0),
	}
}

// pageAt returns the resident page containing addr (nil if the page was
// never written), refreshing the read cache on a map hit.
func (m *Memory) pageAt(addr uint32) *page {
	pn := addr >> pageShift
	if pn == m.lastPN {
		return m.lastPage
	}
	p := m.pages[pn]
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// pageForWrite returns an exclusively owned page containing addr,
// allocating a fresh page or copy-on-write-copying a frozen one as needed,
// and refreshes both the read and write caches.
func (m *Memory) pageForWrite(addr uint32) *page {
	pn := addr >> pageShift
	if pn == m.wPN {
		return m.wPage
	}
	p := m.pages[pn]
	switch {
	case p == nil:
		if m.maxPages > 0 && len(m.pages) >= m.maxPages {
			panic(&LimitError{Resident: len(m.pages) * PageSize, Limit: m.maxPages * PageSize})
		}
		p = &page{}
		m.pages[pn] = p
		m.frozen = false
	case atomic.LoadInt32(&p.refs) != 0:
		p = m.cowCopy(pn, p)
	}
	m.lastPN, m.lastPage = pn, p
	m.wPN, m.wPage = pn, p
	return p
}

// cowCopy services a write fault on frozen page p: it copies the contents
// into a fresh exclusively owned page, installs the copy in m's page table
// (replacing p there), and releases m's share of p. Reading p.data,
// p.taint and p.labels here is race-free because a page with refs != 0 is
// immutable.
func (m *Memory) cowCopy(pn uint32, p *page) *page {
	np := &page{data: p.data, taint: p.taint, anyTaint: p.anyTaint}
	if p.labels != nil {
		l := *p.labels
		np.labels = &l
	}
	m.pages[pn] = np
	atomic.AddInt32(&p.refs, -1)
	m.frozen = false
	m.cowFaults++
	return np
}

// Freeze marks every resident page read-only, so that the next write — by
// m itself or by any Fork taken from it — faults into a private copy.
// Freeze requires exclusive access to m (it stores page refcounts and
// resets the write cache); on an already-frozen Memory it is a read-only
// no-op, which is what makes concurrent Fork calls safe.
func (m *Memory) Freeze() {
	if m.frozen {
		return
	}
	for _, p := range m.pages {
		if atomic.LoadInt32(&p.refs) == 0 {
			atomic.StoreInt32(&p.refs, 1)
		}
	}
	m.wPN, m.wPage = ^uint32(0), nil
	m.frozen = true
}

// Fork returns a copy-on-write clone of m: the clone shares every resident
// page with m, and a page is copied only when one side writes it. Fork
// freezes m first; on an already-frozen Memory (a snapshot that has not
// executed since Freeze) Fork only reads m and bumps page refcounts
// atomically, so many goroutines may fork the same snapshot at once — this
// is how the campaign engine stamps out per-session memories.
func (m *Memory) Fork() *Memory {
	m.Freeze()
	pages := make(map[uint32]*page, len(m.pages))
	for pn, p := range m.pages {
		atomic.AddInt32(&p.refs, 1)
		pages[pn] = p
	}
	return &Memory{
		pages:         pages,
		lastPN:        ^uint32(0),
		wPN:           ^uint32(0),
		frozen:        true,
		taintedStores: m.taintedStores,
		maxPages:      m.maxPages,
		provOn:        m.provOn,
		provWords:     m.provWords,
	}
}

// SetResidentLimit caps the guest's resident memory at limit bytes,
// rounded up to a whole page (0 removes the cap). A write that would
// allocate a page past the cap panics with *LimitError; the CPU run
// loops recover that into an error, so a self-growing guest degrades to
// a contained fault instead of consuming the host. Forks inherit the
// limit.
func (m *Memory) SetResidentLimit(limit int) {
	if limit <= 0 {
		m.maxPages = 0
		return
	}
	m.maxPages = (limit + PageSize - 1) / PageSize
}

// ResidentLimit returns the resident-memory cap in bytes (0 = uncapped).
func (m *Memory) ResidentLimit() int { return m.maxPages * PageSize }

// COWFaults returns how many pages this Memory copied on write faults
// since it was created or forked.
func (m *Memory) COWFaults() uint64 { return m.cowFaults }

// LoadByte returns the byte at addr and its taintedness.
func (m *Memory) LoadByte(addr uint32) (byte, bool) {
	p := m.pageAt(addr)
	if p == nil {
		return 0, false
	}
	off := addr & (PageSize - 1)
	return p.data[off], p.tainted(off)
}

// StoreByte stores one byte and its taintedness at addr.
func (m *Memory) StoreByte(addr uint32, b byte, tainted bool) {
	p := m.pageForWrite(addr)
	off := addr & (PageSize - 1)
	p.data[off] = b
	p.setTaint(off, tainted)
	if tainted {
		m.taintedStores++
	}
}

// HalfAt returns the little-endian halfword at a 2-aligned addr with its
// taint vector in the low two lanes; the caller must have checked the
// alignment. An aligned halfword never straddles a page (or a taint bitset
// byte), so one page lookup serves both bytes, and the whole accessor is
// small enough to inline into the CPU's block fast path.
func (m *Memory) HalfAt(addr uint32) (uint16, taint.Vec) {
	if addr>>pageShift != m.lastPN {
		return m.halfAtMiss(addr)
	}
	p, off := m.lastPage, addr&(PageSize-1)
	return binary.LittleEndian.Uint16(p.data[off:]),
		taint.Vec(p.taint[off>>3]>>(off&7)) & 0x3
}

func (m *Memory) halfAtMiss(addr uint32) (uint16, taint.Vec) {
	p := m.pageAt(addr)
	if p == nil {
		return 0, taint.None
	}
	off := addr & (PageSize - 1)
	return binary.LittleEndian.Uint16(p.data[off:]),
		taint.Vec(p.taint[off>>3]>>(off&7)) & 0x3
}

// PutHalf stores a little-endian halfword at a 2-aligned addr
// (caller-checked); lanes 0-1 of vec supply taint.
func (m *Memory) PutHalf(addr uint32, h uint16, vec taint.Vec) {
	p := m.wPage
	if addr>>pageShift != m.wPN {
		p = m.pageForWrite(addr)
	}
	off := addr & (PageSize - 1)
	binary.LittleEndian.PutUint16(p.data[off:], h)
	sh := off & 7
	nib := byte(vec) & 0x3
	p.taint[off>>3] = p.taint[off>>3]&^(0x3<<sh) | nib<<sh
	if nib != 0 {
		m.taintedStores += uint64(bits.OnesCount8(nib))
		p.anyTaint = true
	}
}

// LoadHalf returns the little-endian halfword at addr with its taint vector
// in the low two lanes, checking alignment.
func (m *Memory) LoadHalf(addr uint32) (uint16, taint.Vec, error) {
	if addr&1 != 0 {
		return 0, taint.None, &AlignmentError{Addr: addr, Width: 2}
	}
	h, v := m.HalfAt(addr)
	return h, v, nil
}

// StoreHalf stores a little-endian halfword; lanes 0-1 of vec supply taint.
func (m *Memory) StoreHalf(addr uint32, h uint16, vec taint.Vec) error {
	if addr&1 != 0 {
		return &AlignmentError{Addr: addr, Width: 2}
	}
	m.PutHalf(addr, h, vec)
	return nil
}

// WordAt returns the little-endian word and 4-lane taint at a 4-aligned
// addr; the caller must have checked the alignment. An aligned word sits
// inside one page with its four taint bits contiguous in one bitset byte,
// so the whole access is a single page lookup, and the accessor is small
// enough to inline into the CPU's block fast path.
func (m *Memory) WordAt(addr uint32) (uint32, taint.Vec) {
	if addr>>pageShift != m.lastPN {
		return m.wordAtMiss(addr)
	}
	p, off := m.lastPage, addr&(PageSize-1)
	return binary.LittleEndian.Uint32(p.data[off:]),
		taint.Vec(p.taint[off>>3]>>(off&7)) & taint.Word
}

func (m *Memory) wordAtMiss(addr uint32) (uint32, taint.Vec) {
	p := m.pageAt(addr)
	if p == nil {
		return 0, taint.None
	}
	off := addr & (PageSize - 1)
	return binary.LittleEndian.Uint32(p.data[off:]),
		taint.Vec(p.taint[off>>3]>>(off&7)) & taint.Word
}

// PutWord stores a little-endian word with its 4-lane taint at a 4-aligned
// addr (caller-checked).
func (m *Memory) PutWord(addr uint32, w uint32, vec taint.Vec) {
	p := m.wPage
	if addr>>pageShift != m.wPN {
		p = m.pageForWrite(addr)
	}
	off := addr & (PageSize - 1)
	binary.LittleEndian.PutUint32(p.data[off:], w)
	sh := off & 7
	nib := byte(vec) & byte(taint.Word)
	p.taint[off>>3] = p.taint[off>>3]&^(0xF<<sh) | nib<<sh
	if nib != 0 {
		m.taintedStores += uint64(bits.OnesCount8(nib))
		p.anyTaint = true
	}
}

// LoadWord returns the little-endian word at addr and its 4-lane taint,
// checking alignment.
func (m *Memory) LoadWord(addr uint32) (uint32, taint.Vec, error) {
	if addr&3 != 0 {
		return 0, taint.None, &AlignmentError{Addr: addr, Width: 4}
	}
	w, v := m.WordAt(addr)
	return w, v, nil
}

// StoreWord stores a little-endian word with its 4-lane taint.
func (m *Memory) StoreWord(addr uint32, w uint32, vec taint.Vec) error {
	if addr&3 != 0 {
		return &AlignmentError{Addr: addr, Width: 4}
	}
	m.PutWord(addr, w, vec)
	return nil
}

// SpanTainted reports whether any of the n bytes at addr are tainted,
// without the data copy ReadBytes would do. The scan runs a page at a
// time: a page whose sticky clean flag is unset is skipped outright, and
// a dirty page's bitset is tested in 64-bit lanes rather than bit by bit —
// this is the hot guard of the fast path's home-slot and compare checks.
func (m *Memory) SpanTainted(addr uint32, n int) bool {
	for n > 0 {
		off := addr & (PageSize - 1)
		chunk := PageSize - int(off)
		if chunk > n {
			chunk = n
		}
		if p := m.pageAt(addr); p != nil && p.anyTaint && p.spanTainted(off, off+uint32(chunk)) {
			return true
		}
		addr += uint32(chunk)
		n -= chunk
	}
	return false
}

// ReadBytes copies n bytes starting at addr; taints[i] reports the
// taintedness of byte i.
func (m *Memory) ReadBytes(addr uint32, n int) (data []byte, taints []bool) {
	data = make([]byte, n)
	taints = make([]bool, n)
	for i := 0; i < n; i++ {
		data[i], taints[i] = m.LoadByte(addr + uint32(i))
	}
	return data, taints
}

// WriteBytes stores data at addr with uniform taintedness.
func (m *Memory) WriteBytes(addr uint32, data []byte, tainted bool) {
	for i, b := range data {
		m.StoreByte(addr+uint32(i), b, tainted)
	}
}

// ReadCString reads a NUL-terminated string starting at addr, up to max
// bytes (to bound runaway reads of corrupted memory).
func (m *Memory) ReadCString(addr uint32, max int) string {
	buf := make([]byte, 0, 32)
	for i := 0; i < max; i++ {
		b, _ := m.LoadByte(addr + uint32(i))
		if b == 0 {
			break
		}
		buf = append(buf, b)
	}
	return string(buf)
}

// TaintRange marks n bytes starting at addr as tainted without changing
// their values — the kernel's taint-initialization primitive (Section 4.4).
// One write-fault and one byte-granular bitset fill per page covered.
func (m *Memory) TaintRange(addr uint32, n int) {
	for n > 0 {
		off := addr & (PageSize - 1)
		chunk := PageSize - int(off)
		if chunk > n {
			chunk = n
		}
		m.pageForWrite(addr).taintRun(off, off+uint32(chunk))
		m.taintedStores += uint64(chunk)
		addr += uint32(chunk)
		n -= chunk
	}
}

// UntaintRange clears the taint of n bytes starting at addr. A page whose
// covered span holds no taint is skipped without a write fault, so
// untainting a frozen region that holds no taint copies nothing.
func (m *Memory) UntaintRange(addr uint32, n int) {
	for n > 0 {
		off := addr & (PageSize - 1)
		chunk := PageSize - int(off)
		if chunk > n {
			chunk = n
		}
		end := off + uint32(chunk)
		if p := m.pageAt(addr); p != nil && p.anyTaint && p.spanTainted(off, end) {
			m.pageForWrite(addr).clearRun(off, end)
		}
		addr += uint32(chunk)
		n -= chunk
	}
}

// TaintedBytesWritten returns the cumulative count of taint-set byte writes,
// including TaintRange marks; it feeds the kernel-overhead estimate.
func (m *Memory) TaintedBytesWritten() uint64 { return m.taintedStores }

// Fingerprint returns a deterministic FNV-1a hash over the resident pages'
// addresses, data, and taint bits. Two memories with identical resident
// state hash identically regardless of page-allocation order; the
// differential harness uses it to compare the final memory of two
// executions without materializing either.
func (m *Memory) Fingerprint() uint64 {
	pns := make([]uint32, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, pn := range pns {
		p := m.pages[pn]
		for sh := 0; sh < 32; sh += 8 {
			h = (h ^ uint64(byte(pn>>sh))) * prime64
		}
		for _, b := range p.data {
			h = (h ^ uint64(b)) * prime64
		}
		for _, b := range p.taint {
			h = (h ^ uint64(b)) * prime64
		}
	}
	return h
}

// ResidentBytes returns the amount of allocated (touched) memory.
func (m *Memory) ResidentBytes() int { return len(m.pages) * PageSize }

// CountTainted returns how many bytes in [addr, addr+n) are tainted,
// popcounting the taint bitset in 64-bit lanes.
func (m *Memory) CountTainted(addr uint32, n int) int {
	c := 0
	for n > 0 {
		off := addr & (PageSize - 1)
		chunk := PageSize - int(off)
		if chunk > n {
			chunk = n
		}
		if p := m.pageAt(addr); p != nil && p.anyTaint {
			c += p.countRun(off, off+uint32(chunk))
		}
		addr += uint32(chunk)
		n -= chunk
	}
	return c
}

// PageNumbers returns the resident page numbers in ascending order — a
// deterministic enumeration of the footprint (map iteration order is not),
// used by the fault injectors to pick corruption targets reproducibly.
func (m *Memory) PageNumbers() []uint32 {
	pns := make([]uint32, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

// TaintedAddrs returns the addresses of tainted bytes in ascending order,
// stopping after max addresses (0 = all). The deterministic order is what
// lets a seeded injector pick the same taint bit on every replay.
func (m *Memory) TaintedAddrs(max int) []uint32 {
	var out []uint32
	for _, pn := range m.PageNumbers() {
		p := m.pages[pn]
		base := pn << pageShift
		for wi, tb := range p.taint {
			if tb == 0 {
				continue
			}
			for bit := uint32(0); bit < 8; bit++ {
				if tb&(1<<bit) == 0 {
					continue
				}
				out = append(out, base+uint32(wi)*8+bit)
				if max > 0 && len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}
