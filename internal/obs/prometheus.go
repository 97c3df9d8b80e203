package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus exposes every metric in the Prometheus text format
// (version 0.0.4), the lingua franca scrapers expect from a /metrics
// endpoint. The mapping from the registry's layer/name{label=value,...}
// convention:
//
//   - the base name is sanitized into a Prometheus metric name:
//     "serve/cache.hits" becomes "serve_cache_hits";
//   - the {label=value,...} suffix becomes a Prometheus label set with
//     quoted, escaped values;
//   - counters and gauges map directly; histograms expose the standard
//     cumulative _bucket{le="..."} series (the registry's inclusive
//     upper bounds are already le semantics) plus _sum and _count.
//
// Output is deterministic: families sort by name, series sort by label
// set within a family, and a # TYPE line precedes each family exactly
// once. This is the registry's one text exposition: simd's /metrics serves
// it, armci-bench -metrics writes it, cmd/obs-report reads both. The
// method does not lock anything — callers serving a concurrent scrape
// endpoint must serialize access to the registry themselves.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type series struct {
		labels string // rendered {k="v",...} or ""
		lines  []string
	}
	type family struct {
		name   string
		kind   string // counter | gauge | histogram
		series []series
	}
	fams := map[string]*family{}
	get := func(raw, kind string) (*family, string) {
		base, labels := splitPromName(raw)
		f, ok := fams[base]
		if !ok {
			f = &family{name: base, kind: kind}
			fams[base] = f
		}
		return f, labels
	}

	for name, c := range r.counters {
		f, labels := get(name, "counter")
		f.series = append(f.series, series{labels: labels,
			lines: []string{fmt.Sprintf("%s%s %d", f.name, labels, c.Value())}})
	}
	for name, g := range r.gauges {
		f, labels := get(name, "gauge")
		f.series = append(f.series, series{labels: labels,
			lines: []string{fmt.Sprintf("%s%s %d", f.name, labels, g.v)}})
	}
	for name, h := range r.hists {
		f, labels := get(name, "histogram")
		s := series{labels: labels}
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i]
			s.lines = append(s.lines, fmt.Sprintf("%s_bucket%s %d",
				f.name, promAddLabel(labels, "le", fmt.Sprint(b)), cum))
		}
		cum += h.counts[len(h.bounds)]
		s.lines = append(s.lines,
			fmt.Sprintf("%s_bucket%s %d", f.name, promAddLabel(labels, "le", "+Inf"), cum),
			fmt.Sprintf("%s_sum%s %d", f.name, labels, h.sum),
			fmt.Sprintf("%s_count%s %d", f.name, labels, h.n))
		f.series = append(f.series, s)
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			for _, l := range s.lines {
				if _, err := fmt.Fprintln(w, l); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// splitPromName splits a registry metric name into a sanitized Prometheus
// family name and a rendered label block ("" when unlabeled).
func splitPromName(raw string) (base, labels string) {
	base = raw
	if i := strings.IndexByte(raw, '{'); i >= 0 {
		base = raw[:i]
		inner := strings.TrimSuffix(raw[i+1:], "}")
		var parts []string
		for _, kv := range strings.Split(inner, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				k, v = "label", kv
			}
			// %q escapes exactly the character set the text format
			// requires in label values (backslash, quote, newline).
			parts = append(parts, fmt.Sprintf("%s=%q", sanitizePromName(k), v))
		}
		sort.Strings(parts)
		labels = "{" + strings.Join(parts, ",") + "}"
	}
	return sanitizePromName(base), labels
}

// promAddLabel inserts one extra label into an already rendered block.
func promAddLabel(labels, k, v string) string {
	kv := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + kv + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + kv + "}"
}

// sanitizePromName maps an arbitrary registry name fragment onto the
// Prometheus identifier alphabet [a-zA-Z0-9_:].
func sanitizePromName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			c = '_'
		}
		b.WriteRune(c)
	}
	return b.String()
}
