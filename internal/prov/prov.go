// Package prov implements taint provenance labels: compact identifiers
// that name which external input bytes a tainted value derives from.
//
// Every taint source (a SYS_READ/SYS_RECV delivery, an argv/env string
// written at boot) allocates an Origin — syscall name, fd, stream offset,
// guest buffer address, length, and the retired-instruction timestamp —
// and gets a fresh leaf Label. Table 1 propagation that merges taint
// vectors merges labels too, via hash-consed Union nodes, so a label is a
// DAG over origins and Origins(label) recovers the exact set of input
// ranges a value was computed from.
//
// Labels are meaningful only where the taint shadow is set: clearing
// taint does not clear labels (the lazy-label invariant), which is what
// keeps the disabled and clean paths of the interpreter label-free. A
// consumer must consult taint first and treat the label as stale
// otherwise.
package prov

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Label identifies a provenance DAG node in a Table. The zero Label means
// "no recorded origin".
type Label uint32

// Origin describes one taint source: a contiguous run of input bytes
// delivered into guest memory.
type Origin struct {
	// Syscall names the input channel: "read", "recv", "argv", "env".
	Syscall string `json:"syscall"`
	// FD is the guest file descriptor the bytes arrived on; -1 for
	// boot-time sources (argv/env).
	FD int32 `json:"fd"`
	// Offset is the byte offset within that descriptor's input stream at
	// which this delivery started (for argv/env: the string's index).
	Offset uint64 `json:"offset"`
	// Len is the number of bytes delivered.
	Len uint32 `json:"len"`
	// Addr is the guest address the bytes were copied to.
	Addr uint32 `json:"addr"`
	// Instrs is the retired-instruction count when the input arrived.
	Instrs uint64 `json:"instrs"`
}

// String renders the origin as one human-readable line, e.g.
// "read(fd 0) bytes [0..14) -> 0x00402000 @instr 1234".
func (o Origin) String() string {
	if o.FD < 0 {
		return fmt.Sprintf("%s[%d] %d bytes -> %#08x @instr %d",
			o.Syscall, o.Offset, o.Len, o.Addr, o.Instrs)
	}
	return fmt.Sprintf("%s(fd %d) bytes [%d..%d) -> %#08x @instr %d",
		o.Syscall, o.FD, o.Offset, o.Offset+uint64(o.Len), o.Addr, o.Instrs)
}

// node is one DAG entry: a leaf (origin >= 0, indexing the table's
// origins) or a union of two earlier labels.
type node struct {
	origin int32
	a, b   Label
}

// Table owns the provenance DAG for one machine. Labels are allocated
// densely from 1 in creation order — the interpreter's execution order —
// so two deterministic runs build byte-identical tables. Unions are
// hash-consed: Union(a,b) with the same unordered pair always returns the
// same Label, which both bounds growth and makes label numbers
// comparable across the reference and fast engines.
//
// A forked machine's table is a Layer on its snapshot's: it holds only
// the nodes, origins and memo entries made after the fork and reads the
// rest through to the parent, which must no longer change. A Table is
// not safe for concurrent mutation, but any number of layers may read one
// parent concurrently.
type Table struct {
	// parent is the table this one layers on (nil for a flat table);
	// labels 1..nbase and origins 0..obase-1 resolve there.
	parent       *Table
	nbase, obase int

	nodes   []node
	origins []Origin
	// memo hash-conses this layer's union nodes: an open-addressed set
	// of 1-based indices into nodes, keyed by the node's (a, b) pair and
	// kept at most half full (nil until the layer's first union).
	memo   []uint32
	unions int
}

// NewTable returns an empty provenance table.
func NewTable() *Table { return &Table{} }

// Layer returns an empty table over t: it resolves every label and
// origin of t and allocates past them, as a copy of t would, without
// copying anything. t must not change while the layer is in use.
func (t *Table) Layer() *Table {
	return &Table{parent: t, nbase: t.NumLabels(), obase: t.NumOrigins()}
}

// node returns label l's DAG entry (l must be in range).
func (t *Table) node(l Label) node {
	for int(l) <= t.nbase {
		t = t.parent
	}
	return t.nodes[int(l)-t.nbase-1]
}

// origin returns origin id's record (id must be in range).
func (t *Table) origin(id int32) Origin {
	for int(id) < t.obase {
		t = t.parent
	}
	return t.origins[int(id)-t.obase]
}

// Source allocates a fresh leaf label for one input origin.
func (t *Table) Source(o Origin) Label {
	t.origins = append(t.origins, o)
	t.nodes = append(t.nodes, node{origin: int32(t.obase + len(t.origins) - 1)})
	return Label(t.nbase + len(t.nodes))
}

// Union returns a label covering everything a and b cover. The zero
// label is the identity, equal labels collapse, and the (unordered) pair
// is memoized so repeated merges along a loop allocate nothing. A pair of
// labels the parent knows may already be memoized there.
func (t *Table) Union(a, b Label) Label {
	if a == 0 || a == b {
		return b
	}
	if b == 0 {
		return a
	}
	if a > b {
		a, b = b, a
	}
	if l := t.lookup(a, b); l != 0 {
		return l
	}
	// A pair of labels a parent holds may have its union there.
	for p, nb := t.parent, t.nbase; p != nil && int(b) <= nb; p, nb = p.parent, p.nbase {
		if l := p.lookup(a, b); l != 0 {
			return l
		}
	}
	t.nodes = append(t.nodes, node{origin: -1, a: a, b: b})
	t.insert(len(t.nodes))
	return Label(t.nbase + len(t.nodes))
}

// memoSlot returns the first memo slot to probe for the pair (a, b).
func (t *Table) memoSlot(a, b Label) int {
	h := (uint64(a)<<32 | uint64(b)) * 0x9E3779B97F4A7C15
	return int(h>>32) & (len(t.memo) - 1)
}

// lookup returns this layer's union of (a, b), a < b, or 0 if it has
// none.
func (t *Table) lookup(a, b Label) Label {
	if t.memo == nil {
		return 0
	}
	mask := len(t.memo) - 1
	for i := t.memoSlot(a, b); t.memo[i] != 0; i = (i + 1) & mask {
		if n := t.nodes[t.memo[i]-1]; n.a == a && n.b == b {
			return Label(t.nbase + int(t.memo[i]))
		}
	}
	return 0
}

// insert adds the union node at 1-based index idx to the memo, doubling
// the memo first when it would pass half full.
func (t *Table) insert(idx int) {
	if t.unions++; 2*t.unions > len(t.memo) {
		old := t.memo
		t.memo = make([]uint32, max(64, 2*len(old)))
		for _, j := range old {
			if j != 0 {
				t.place(j)
			}
		}
	}
	t.place(uint32(idx))
}

// place stores node index idx in the first free slot of its probe run.
func (t *Table) place(idx uint32) {
	n := t.nodes[idx-1]
	mask := len(t.memo) - 1
	i := t.memoSlot(n.a, n.b)
	for t.memo[i] != 0 {
		i = (i + 1) & mask
	}
	t.memo[i] = idx
}

// Origins resolves a label to its leaf origins, deduplicated, in
// origin-allocation (input-arrival) order. The zero label resolves to
// nil.
func (t *Table) Origins(l Label) []Origin {
	if l == 0 || int(l) > t.NumLabels() {
		return nil
	}
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	ids := w.originIndices(t, l)
	if len(ids) == 0 {
		return nil
	}
	out := make([]Origin, len(ids))
	for i, id := range ids {
		out[i] = t.origin(id)
	}
	return out
}

// walk is the reusable working memory of one DAG walk: the stack, the
// origin indices found, and a visit stamp per label. A label is visited
// in this walk when its mark equals stamp, so no walk clears the marks.
type walk struct {
	stack []Label
	ids   []int32
	mark  []uint32
	stamp uint32
}

// walkPool recycles walks, so Origins allocates only its result and stays
// a read of the table that any number of goroutines may make at once.
var walkPool = sync.Pool{New: func() any { return new(walk) }}

// originIndices walks the DAG under l (a label of t) iteratively and
// returns the sorted set of leaf origin indices, valid until the walk's
// next use. A union's operands are older labels than the union, so every
// label the walk reaches is at most l.
func (w *walk) originIndices(t *Table, l Label) []int32 {
	if n := int(l) + 1; len(w.mark) < n {
		w.mark = append(w.mark, make([]uint32, n-len(w.mark))...)
	}
	if w.stamp++; w.stamp == 0 {
		clear(w.mark)
		w.stamp = 1
	}
	w.stack = append(w.stack[:0], l)
	w.ids = w.ids[:0]
	for len(w.stack) > 0 {
		cur := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if cur == 0 || w.mark[cur] == w.stamp {
			continue
		}
		w.mark[cur] = w.stamp
		n := t.node(cur)
		if n.origin >= 0 {
			w.ids = append(w.ids, n.origin)
			continue
		}
		w.stack = append(w.stack, n.a, n.b)
	}
	slices.Sort(w.ids)
	return w.ids
}

// NumOrigins reports how many input origins have been recorded.
func (t *Table) NumOrigins() int { return t.obase + len(t.origins) }

// NumLabels reports how many labels (leaves + unions) exist.
func (t *Table) NumLabels() int { return t.nbase + len(t.nodes) }

// Describe renders a label's origin set as a multi-line forensic chain,
// one origin per line, prefixed with prefix.
func (t *Table) Describe(l Label, prefix string) string {
	os := t.Origins(l)
	if len(os) == 0 {
		return prefix + "(no recorded origin)"
	}
	var b strings.Builder
	for i, o := range os {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(prefix)
		b.WriteString(o.String())
	}
	return b.String()
}

// Clone returns an independent flat copy: every node and origin t can
// see, its own and those of the tables under it, in one table with no
// parent and its memo rebuilt. A snapshot clones its machine's table, so
// the layers its forks put on it read a table nothing writes any more.
func (t *Table) Clone() *Table {
	n := &Table{}
	t.flattenInto(n)
	for i, nd := range n.nodes {
		if nd.origin < 0 {
			n.insert(i + 1)
		}
	}
	return n
}

// flattenInto appends every node and origin t can see to n's.
func (t *Table) flattenInto(n *Table) {
	if t.parent != nil {
		t.parent.flattenInto(n)
		n.nodes, n.origins = n.nodes[:t.nbase], n.origins[:t.obase]
	}
	n.nodes = append(n.nodes, t.nodes...)
	n.origins = append(n.origins, t.origins...)
}
