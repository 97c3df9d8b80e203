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
	vals, names := r.appendFamilies(vals, nil, false)
	b = appendSorted(append(b, `{"counters":{`...), vals, names)

	vals = vals[:0]
	for name, g := range r.gauges {
		vals = append(vals, namedValue{name: name, v: g.v})
	}
	vals, names = r.appendFamilies(vals, names[:0], true)
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
// registry name. A family series' name is formatted into the snapshot's
// name buffer, ending at end, and named from it once all are there.
type namedValue struct {
	name string
	v    int64
	end  int
}

// appendFamilies appends the series of every counter family, or every
// gauge family, with their full names formatted into names:
// "name{k1=v1,k2=v2}", the string a named handle of the same series would
// carry.
func (r *Registry) appendFamilies(vals []namedValue, names []byte, gauge bool) ([]namedValue, []byte) {
	for _, f := range r.fams {
		if f.gauge != gauge {
			continue
		}
		for _, m := range f.series() {
			names = append(names, f.name...)
			for j, k := range f.labelNames() {
				if j == 0 {
					names = append(names, '{')
				} else {
					names = append(names, ',')
				}
				names = append(names, k...)
				names = append(names, '=')
				names = strconv.AppendInt(names, int64(m.Labels[j]), 10)
			}
			names = append(names, '}')
			vals = append(vals, namedValue{v: m.V, end: len(names)})
		}
	}
	return vals, names
}

// appendSorted appends vals as the members of a JSON object, sorted by
// name; family series' names are cut from names (appendFamilies) first.
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
