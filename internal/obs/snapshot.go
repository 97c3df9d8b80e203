package obs

import (
	"io"
	"slices"
	"strconv"
	"strings"
)

// SnapshotJSON writes the registry's full metric state as one compact
// (single-line) JSON object:
//
//	{"counters":{name:value,...},
//	 "gauges":{name:value,...},
//	 "histograms":{name:{"count":n,"sum":s,"buckets":[[bound,count],...],"overflow":c},...}}
//
// Ordering is deterministic with the same discipline as WritePrometheus:
// every section iterates its names sorted, so two identical registries —
// or the same run replayed at a different sweep worker count — produce
// byte-identical snapshots. The single-line shape is what lets the
// serving layer embed a snapshot verbatim as one SSE `metrics` event.
//
// Like the other exporters, SnapshotJSON does not lock: callers sharing
// the registry across goroutines serialize access themselves. A nil
// registry writes an empty (but valid) snapshot.
func (r *Registry) SnapshotJSON(w io.Writer) error {
	// A bytes.Buffer or bufio.Writer lends its spare capacity, so a caller
	// that reuses one pays for no copy here.
	var b []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		b = ab.AvailableBuffer()
	}
	b = r.appendSnapshotJSON(b)
	_, err := w.Write(b)
	return err
}

func (r *Registry) appendSnapshotJSON(b []byte) []byte {
	if r == nil {
		return append(b, `{"counters":{},"gauges":{},"histograms":{}}`...)
	}
	vals := make([]namedValue, 0, max(len(r.counters), len(r.gauges)))
	for name, c := range r.counters {
		vals = append(vals, namedValue{name: name, v: c.Value()})
	}
	size := 0
	for _, f := range r.cfams {
		size += f.nameBytes()
	}
	names := make([]byte, 0, size)
	for _, f := range r.cfams {
		vals, names = f.appendValues(vals, names, (*member).value)
	}
	b = appendSorted(append(b, `{"counters":{`...), vals, names)

	size = 0
	for _, f := range r.gfams {
		size += f.nameBytes()
	}
	vals, names = vals[:0], slices.Grow(names[:0], size)
	for name, g := range r.gauges {
		vals = append(vals, namedValue{name: name, v: g.v})
	}
	for _, f := range r.gfams {
		vals, names = f.appendValues(vals, names, func(m *member) int64 { return m.v })
	}
	b = appendSorted(append(b, `},"gauges":{`...), vals, names)

	b = append(b, `},"histograms":{`...)
	for i, name := range sortedKeys(nil, r.hists) {
		h := r.hists[name]
		b = appendKey(b, i, name)
		b = append(b, `{"count":`...)
		b = strconv.AppendUint(b, h.n, 10)
		b = append(b, `,"sum":`...)
		b = strconv.AppendInt(b, h.sum, 10)
		b = append(b, `,"buckets":[`...)
		for j, bound := range h.bounds {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendInt(b, bound, 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, h.counts[j], 10)
			b = append(b, ']')
		}
		b = append(b, `],"overflow":`...)
		b = strconv.AppendUint(b, h.counts[len(h.bounds)], 10)
		b = append(b, '}')
	}
	return append(b, "}}"...)
}

// namedValue is one counter or gauge of a snapshot under its full
// registry name. A family member's name is formatted into the snapshot's
// name buffer, ending at end, and named from it once all are there.
type namedValue struct {
	name string
	v    int64
	end  int
}

// nameBytes bounds the bytes the members' full names take.
func (f *family) nameBytes() int {
	n := len(f.name) + 2 + f.nkeys*21 // braces; per label '=' or ',' and 20 digits
	for _, k := range f.labelNames() {
		n += len(k)
	}
	return n * len(f.members)
}

// appendValues appends each member's value, read by value, and its full
// name to names: "name{k1=v1,k2=v2}", the string a named handle of the
// same series would carry.
func (f *family) appendValues(vals []namedValue, names []byte, value func(*member) int64) ([]namedValue, []byte) {
	for i := range f.members {
		m := &f.members[i]
		names = append(names, f.name...)
		for j, k := range f.labelNames() {
			if j == 0 {
				names = append(names, '{')
			} else {
				names = append(names, ',')
			}
			names = append(names, k...)
			names = append(names, '=')
			names = strconv.AppendInt(names, m.labels[j], 10)
		}
		names = append(names, '}')
		vals = append(vals, namedValue{v: value(m), end: len(names)})
	}
	return vals, names
}

// appendSorted appends vals as the members of a JSON object, sorted by
// name; family members' names are cut from names (family.appendValues)
// first.
func appendSorted(b []byte, vals []namedValue, names []byte) []byte {
	if len(names) > 0 {
		text, at := string(names), 0
		for i := range vals {
			if v := &vals[i]; v.end > 0 {
				v.name, at = text[at:v.end], v.end
			}
		}
	}
	slices.SortFunc(vals, func(a, b namedValue) int { return strings.Compare(a.name, b.name) })
	for i, v := range vals {
		b = appendKey(b, i, v.name)
		b = strconv.AppendInt(b, v.v, 10)
	}
	return b
}

// sortedKeys refills names with m's keys, sorted.
func sortedKeys[V any](names []string, m map[string]V) []string {
	names = names[:0]
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// appendKey appends the i-th member name of a JSON object, with its colon.
func appendKey(b []byte, i int, name string) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	return append(AppendJSONString(b, name), ':')
}
