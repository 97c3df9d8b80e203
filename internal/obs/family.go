package obs

import (
	"slices"
	"sync/atomic"
)

// maxLabels is the most labels a family's members carry.
const maxLabels = 2

// labelSet is a member's label values, in the family's label order.
type labelSet [maxLabels]int64

// member is one series of a family. A counter member is v plus the field
// attached to it, if any; a gauge member is v once set.
type member struct {
	labels labelSet
	v      int64
	src    *uint64
	set    bool
}

// value is a counter member's sum, its attached field read now.
func (m *member) value() int64 {
	if m.src == nil {
		return m.v
	}
	return m.v + int64(atomic.LoadUint64(m.src))
}

// family is what counter and gauge families share: a name, its label
// names, and the members in the order they were added, found by label
// through an open-addressed index once there are more than a few.
type family struct {
	reg     *Registry // the registry it belongs to: checked when a member is added
	name    string
	keys    [maxLabels]string // label names, in the order the raw name spells them
	nkeys   int
	members []member
	index   []int32 // member position + 1 per slot, 0 = empty; nil while len(members) <= scanMembers
}

// scanMembers is how many members a family finds by scanning before it
// builds its index.
const scanMembers = 32

func (f *family) init(r *Registry, name string, keys []string) {
	if len(keys) == 0 || len(keys) > maxLabels {
		panic("obs: a family takes 1 to 2 label names")
	}
	f.reg, f.name, f.nkeys = r, name, copy(f.keys[:], keys)
}

// labelNames returns the family's label names.
func (f *family) labelNames() []string { return f.keys[:f.nkeys] }

// checkKeys panics unless keys are the family's label names.
func (f *family) checkKeys(keys []string) {
	if !slices.Equal(f.labelNames(), keys) {
		panic("obs: family " + f.name + " made again with other label names")
	}
}

// labelsOf packs a member's label values, one per label name.
func (f *family) labelsOf(values []int) labelSet {
	if len(values) != f.nkeys {
		panic("obs: family " + f.name + " member needs one value per label")
	}
	var l labelSet
	for i, v := range values {
		l[i] = int64(v)
	}
	return l
}

// find returns the position of the member labelled l, or -1.
func (f *family) find(l labelSet) int {
	if f.index == nil {
		for i := range f.members {
			if f.members[i].labels == l {
				return i
			}
		}
		return -1
	}
	mask := len(f.index) - 1
	for s := hashLabels(l) & mask; ; s = (s + 1) & mask {
		p := f.index[s]
		if p == 0 {
			return -1
		}
		if f.members[p-1].labels == l {
			return int(p - 1)
		}
	}
}

// at returns the position of the member labelled l, adding it, zero and
// unset, when the family has none.
func (f *family) at(l labelSet) int {
	if i := f.find(l); i >= 0 {
		return i
	}
	if f.members == nil {
		// A family's first members come from its registry's storage,
		// beside the other families'.
		f.members = f.reg.store.members.take(4, 16)[:0]
	}
	f.members = append(f.members, member{labels: l})
	n := len(f.members)
	switch {
	case n <= scanMembers:
	case 2*n > len(f.index): // keeps the index at most half full
		f.reindex()
	default:
		f.slot(n - 1)
	}
	return n - 1
}

// reindex rebuilds the index for the current members.
func (f *family) reindex() {
	if len(f.members) <= scanMembers {
		f.index = nil
		return
	}
	size := 4 * scanMembers
	for size < 4*len(f.members) {
		size *= 2
	}
	f.index = make([]int32, size)
	for i := range f.members {
		f.slot(i)
	}
}

// slot enters member i into the index.
func (f *family) slot(i int) {
	mask := len(f.index) - 1
	s := hashLabels(f.members[i].labels) & mask
	for f.index[s] != 0 {
		s = (s + 1) & mask
	}
	f.index[s] = int32(i + 1)
}

func hashLabels(l labelSet) int {
	h := uint64(l[0])*0x9e3779b97f4a7c15 ^ uint64(l[1])*0xc2b2ae3d27d4eb4f
	return int(h ^ h>>31)
}

// CounterFamily is a set of counters that differ only in their integer
// labels: one per rank, per (rank, context) or per link. The nil family,
// which a nil registry returns, is a no-op.
type CounterFamily struct{ family }

// CounterFamily returns (creating if needed) the named counter family,
// whose members carry the given label names. Making it again with other
// label names panics. Returns nil on a nil registry.
func (r *Registry) CounterFamily(name string, labels ...string) *CounterFamily {
	if r == nil {
		return nil
	}
	r.checkLive()
	f := r.cfams[name]
	if f == nil {
		f = &r.store.cfams.take(1, 4)[0]
		f.init(r, name, labels)
		put(&r.cfams, name, f)
	} else {
		f.checkKeys(labels)
	}
	return f
}

// Member returns the position of the member with the given label values,
// one per label name, adding it at 0 when needed. The position is the
// member's handle for Add and Attach; it stays valid until the registry is
// merged. Returns -1 on a nil family.
func (f *CounterFamily) Member(labels ...int) int {
	if f == nil {
		return -1
	}
	f.reg.checkLive()
	return f.at(f.labelsOf(labels))
}

// Add increments member m by delta.
func (f *CounterFamily) Add(m int, delta int64) {
	if f == nil {
		return
	}
	f.members[m].v += delta
}

// Attach makes the field at p member m's source, as Registry.Attach does
// for a named counter. A member takes one field.
func (f *CounterFamily) Attach(m int, p *uint64) {
	if f == nil {
		return
	}
	f.reg.checkLive()
	if f.members[m].src != nil {
		panic("obs: family " + f.name + " member already has a field attached")
	}
	f.members[m].src = p
}

// sample folds every attached field into its member and drops it.
func (f *CounterFamily) sample() {
	for i := range f.members {
		m := &f.members[i]
		m.v, m.src = m.value(), nil
	}
}

// merge adds other's members into f by label, appending those f lacks.
func (f *CounterFamily) merge(other *CounterFamily) {
	f.checkKeys(other.labelNames())
	for i := range other.members {
		m := &other.members[i]
		f.members[f.at(m.labels)].v += m.value()
	}
}

// GaugeFamily is a set of high-water-mark gauges (Gauge.SetMax) that
// differ only in their integer labels. The nil family is a no-op.
type GaugeFamily struct{ family }

// GaugeFamily returns (creating if needed) the named gauge family, as
// CounterFamily does.
func (r *Registry) GaugeFamily(name string, labels ...string) *GaugeFamily {
	if r == nil {
		return nil
	}
	r.checkLive()
	f := r.gfams[name]
	if f == nil {
		f = &r.store.gfams.take(1, 4)[0]
		f.init(r, name, labels)
		put(&r.gfams, name, f)
	} else {
		f.checkKeys(labels)
	}
	return f
}

// Member returns the position of the member with the given label values,
// adding it unset when needed; an unset member exports 0, as a named
// gauge never written does, and a merge does not carry it. Returns -1 on
// a nil family.
func (f *GaugeFamily) Member(labels ...int) int {
	if f == nil {
		return -1
	}
	f.reg.checkLive()
	return f.at(f.labelsOf(labels))
}

// SetMax records v into member m if it exceeds the current value.
func (f *GaugeFamily) SetMax(m int, v int64) {
	if f == nil {
		return
	}
	if g := &f.members[m]; !g.set || v > g.v {
		g.v, g.set = v, true
	}
}

// dropUnset removes the members never written, which a merge does not
// carry.
func (f *GaugeFamily) dropUnset() {
	kept := slices.DeleteFunc(f.members, func(m member) bool { return !m.set })
	if len(kept) != len(f.members) {
		f.members = kept
		f.reindex()
	}
}

// merge folds other's written members into f by label, as a running
// maximum.
func (f *GaugeFamily) merge(other *GaugeFamily) {
	f.checkKeys(other.labelNames())
	for i := range other.members {
		if m := &other.members[i]; m.set {
			f.SetMax(f.at(m.labels), m.v)
		}
	}
}
