// Provenance label shadow: an opt-in, word-granular record of the
// prov.Label each guest word carries, beside the per-byte taint shadow.
//
// Labels live on the pages they describe: a page's label words are
// allocated on the first label write to it, and are frozen, shared and
// copied on a write fault together with its data and taint. Fork thus
// copies no label, and forks stay isolated from each other and from the
// snapshot they share pages with. A maintained count of the nonzero
// words answers ProvWords without a scan.
//
// The shadow is deliberately lazy: labels are written only on tainted
// stores and input deliveries, and NEVER cleared when taint is — a label
// at an address where the taint shadow is clean is stale and meaningless.
// Consumers (the CPU's provenance hooks) consult taint first, so stale
// entries are unobservable. This asymmetry is what keeps every clean
// store, every untaint, and the whole disabled configuration label-free:
// with the shadow disabled the hot paths do not branch on it at all (the
// CPU gates on its own prov state before calling in here).
package mem

import "repro/internal/prov"

// pageLabels holds one label per aligned word of a page.
type pageLabels [PageSize / 4]prov.Label

// EnableProv turns the label shadow on; idempotent.
func (m *Memory) EnableProv() { m.provOn = true }

// ProvEnabled reports whether the label shadow is on.
func (m *Memory) ProvEnabled() bool { return m.provOn }

// ProvLabel returns the label recorded for the aligned word containing
// addr (0 if none, or if the shadow is disabled). Only meaningful while
// the word's taint shadow is set.
func (m *Memory) ProvLabel(addr uint32) prov.Label {
	p := m.pageAt(addr)
	if p == nil || p.labels == nil {
		return 0
	}
	return p.labels[(addr&(PageSize-1))>>2]
}

// SetProvLabel records l for the aligned word containing addr; l == 0
// clears it. Callers label words they have just written, so the page is
// resident, and a write that changes nothing faults no page. The caller
// must have enabled the shadow.
func (m *Memory) SetProvLabel(addr uint32, l prov.Label) {
	if m.ProvLabel(addr) == l {
		return
	}
	p := m.pageForWrite(addr)
	if p.labels == nil {
		p.labels = new(pageLabels)
	}
	w := &p.labels[(addr&(PageSize-1))>>2]
	switch {
	case *w == 0:
		m.provWords++
	case l == 0:
		m.provWords--
	}
	*w = l
}

// ProvWords reports how many words currently carry a label.
func (m *Memory) ProvWords() int { return m.provWords }
