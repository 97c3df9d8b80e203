package obs

import (
	"fmt"
	"io"
	"sort"
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
	var b strings.Builder
	b.WriteString(`{"counters":{`)
	if r != nil {
		names := make([]string, 0, len(r.counters))
		for name := range r.counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%d", jstr(name), r.counters[name].Value())
		}
	}
	b.WriteString(`},"gauges":{`)
	if r != nil {
		names := make([]string, 0, len(r.gauges))
		for name := range r.gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%d", jstr(name), r.gauges[name].v)
		}
	}
	b.WriteString(`},"histograms":{`)
	if r != nil {
		names := make([]string, 0, len(r.hists))
		for name := range r.hists {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			h := r.hists[name]
			fmt.Fprintf(&b, `%s:{"count":%d,"sum":%d,"buckets":[`, jstr(name), h.n, h.sum)
			for j, bound := range h.bounds {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "[%d,%d]", bound, h.counts[j])
			}
			fmt.Fprintf(&b, `],"overflow":%d}`, h.counts[len(h.bounds)])
		}
	}
	b.WriteString("}}")
	_, err := io.WriteString(w, b.String())
	return err
}
