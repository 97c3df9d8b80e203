package obs

import (
	"io"
	"slices"
	"strconv"
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
	b = append(b, `{"counters":{`...)
	names := sortedKeys(nil, r.counters)
	for i, name := range names {
		b = appendKey(b, i, name)
		b = strconv.AppendInt(b, r.counters[name].Value(), 10)
	}
	b = append(b, `},"gauges":{`...)
	names = sortedKeys(names, r.gauges)
	for i, name := range names {
		b = appendKey(b, i, name)
		b = strconv.AppendInt(b, r.gauges[name].v, 10)
	}
	b = append(b, `},"histograms":{`...)
	names = sortedKeys(names, r.hists)
	for i, name := range names {
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
	return append(appendJSONString(b, name), ':')
}
