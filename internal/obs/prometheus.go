package obs

import (
	"bytes"
	"cmp"
	"io"
	"slices"
	"strconv"
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
//     quoted, escaped values; a family series' labels are its family's
//     label names and its values, as its full name would spell them;
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
	// Every series' base name and label block go into one buffer, which
	// becomes one string; the series then sort by (base, labels). A family
	// series' name is formatted here and nowhere else.
	var names []byte
	all := make([]promSeries, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	plain := func(raw string, kind promKind) promSeries {
		base, inner, labeled := strings.Cut(raw, "{")
		s := promSeries{kind: kind, base: len(names)}
		names = appendPromName(names, base)
		s.baseEnd, s.labels = len(names), len(names)
		if labeled {
			names = appendPromLabels(names, strings.TrimSuffix(inner, "}"))
		}
		s.end = len(names)
		return s
	}
	for raw, c := range r.counters {
		s := plain(raw, promCounter)
		s.c = c
		all = append(all, s)
	}
	for raw, g := range r.gauges {
		s := plain(raw, promGauge)
		s.g = g
		all = append(all, s)
	}
	for raw, h := range r.hists {
		s := plain(raw, promHistogram)
		s.h = h
		all = append(all, s)
	}
	for _, f := range r.fams {
		kind := promCounter
		if f.gauge {
			kind = promGauge
		}
		base := len(names)
		names = appendPromName(names, f.name)
		baseEnd := len(names)
		order := promKeyOrder(f.labelNames())
		for _, m := range f.series() {
			s := promSeries{kind: kind, v: m.V, base: base, baseEnd: baseEnd, labels: len(names)}
			names = append(names, '{')
			for j, k := range order {
				if j > 0 {
					names = append(names, ',')
				}
				names = appendPromName(names, f.keys[k])
				names = append(names, `="`...)
				names = strconv.AppendInt(names, int64(m.Labels[k]), 10)
				names = append(names, '"')
			}
			names = append(names, '}')
			s.end = len(names)
			all = append(all, s)
		}
	}
	text := string(names)
	for i := range all {
		s := &all[i]
		s.baseName, s.labelSet = text[s.base:s.baseEnd], text[s.labels:s.end]
	}
	slices.SortFunc(all, func(a, b promSeries) int {
		if c := strings.Compare(a.baseName, b.baseName); c != 0 {
			return c
		}
		if c := strings.Compare(a.labelSet, b.labelSet); c != 0 {
			return c
		}
		return cmp.Compare(a.kind, b.kind)
	})

	// A writer that lends its spare capacity (bytes.Buffer, bufio.Writer)
	// is asked again after every write: what it lent holds what it took.
	var out []byte
	lender, lends := w.(interface{ AvailableBuffer() []byte })
	if lends {
		out = lender.AvailableBuffer()
	}
	for lo := 0; lo < len(all); {
		// A family is the run of series with one base name; its type is
		// the first kind among them, counters before gauges before
		// histograms.
		hi, kind := lo+1, all[lo].kind
		for ; hi < len(all) && all[hi].baseName == all[lo].baseName; hi++ {
			kind = min(kind, all[hi].kind)
		}
		out = append(out, "# TYPE "...)
		out = append(out, all[lo].baseName...)
		out = append(out, ' ')
		out = append(out, promKindNames[kind]...)
		out = append(out, '\n')
		for i := lo; i < hi; i++ {
			out = all[i].appendLines(out)
		}
		lo = hi
		if len(out) >= 64<<10 || lo == len(all) {
			if _, err := w.Write(out); err != nil {
				return err
			}
			if out = out[:0]; lends {
				out = lender.AvailableBuffer()
			}
		}
	}
	return nil
}

type promKind int8

const (
	promCounter promKind = iota
	promGauge
	promHistogram
)

var promKindNames = [...]string{"counter", "gauge", "histogram"}

// promSeries is one exposed series: a named handle or a family's series.
// While the exposition is assembled its names are offsets into one
// buffer: the base name at [base, baseEnd), the label block at
// [labels, end). A family series' base is its family's, written once.
type promSeries struct {
	kind                       promKind
	base, baseEnd, labels, end int
	baseName, labelSet         string
	c                          *Counter
	g                          *Gauge
	h                          *Histogram
	v                          int64 // a family series' value
}

// appendLines appends the series' sample lines.
func (s *promSeries) appendLines(b []byte) []byte {
	switch {
	case s.h != nil:
		h := s.h
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i]
			b = s.appendBucket(b, bound, false, cum)
		}
		cum += h.counts[len(h.bounds)]
		b = s.appendBucket(b, 0, true, cum)
		b = s.appendSample(b, "_sum", h.sum)
		return s.appendSample(b, "_count", int64(h.n))
	case s.c != nil:
		return s.appendSample(b, "", s.c.Value())
	case s.g != nil:
		return s.appendSample(b, "", s.g.v)
	default:
		return s.appendSample(b, "", s.v)
	}
}

// appendSample appends "base<suffix><labels> v".
func (s *promSeries) appendSample(b []byte, suffix string, v int64) []byte {
	b = append(b, s.baseName...)
	b = append(b, suffix...)
	b = append(b, s.labelSet...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, v, 10)
	return append(b, '\n')
}

// appendBucket appends one cumulative histogram bucket line, its le label
// (the bound, or +Inf) last in the block.
func (s *promSeries) appendBucket(b []byte, le int64, inf bool, cum uint64) []byte {
	b = append(b, s.baseName...)
	b = append(b, "_bucket"...)
	if s.labelSet == "" {
		b = append(b, '{')
	} else {
		b = append(b, s.labelSet[:len(s.labelSet)-1]...)
		b = append(b, ',')
	}
	b = append(b, `le="`...)
	if inf {
		b = append(b, "+Inf"...)
	} else {
		b = strconv.AppendInt(b, le, 10)
	}
	b = append(b, `"} `...)
	b = strconv.AppendUint(b, cum, 10)
	return append(b, '\n')
}

// appendPromLabels appends the Prometheus label block of a registry
// name's {k=v,...} suffix (inner is what the braces hold): keys
// sanitized, values quoted as %q quotes them, which escapes exactly what
// the text format requires (backslash, quote, newline), and the k="v"
// parts sorted. A part without '=' is the value of a key named "label".
func appendPromLabels(b []byte, inner string) []byte {
	// Render the parts past the end of b, sort their spans, and write the
	// block in their order after them; then move it down to where it
	// belongs.
	start := len(b)
	spans := make([][2]int, 0, 8)
	for more := true; more; {
		var kv string
		kv, inner, more = strings.Cut(inner, ",")
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			k, v = "label", kv
		}
		from := len(b)
		b = appendPromName(b, k)
		b = append(b, '=')
		b = strconv.AppendQuote(b, v)
		spans = append(spans, [2]int{from, len(b)})
	}
	slices.SortFunc(spans, func(x, y [2]int) int { return bytes.Compare(b[x[0]:x[1]], b[y[0]:y[1]]) })
	block := len(b)
	b = append(b, '{')
	for i, sp := range spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, b[sp[0]:sp[1]]...)
	}
	b = append(b, '}')
	return b[:start+copy(b[start:], b[block:])]
}

// promKeyOrder returns the order in which a family's label names appear
// in its Prometheus label blocks: sorted as the k="v" parts they start,
// which is the order of k followed by '=' (no sanitized name holds one).
func promKeyOrder(keys []string) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		return bytes.Compare(
			append(appendPromName(nil, keys[x]), '='),
			append(appendPromName(nil, keys[y]), '='))
	})
	return order
}

// appendPromName appends s mapped onto the Prometheus identifier alphabet
// [a-zA-Z0-9_:], one '_' for each other rune (and for a leading digit).
func appendPromName(b []byte, s string) []byte {
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			c = '_'
		}
		b = append(b, byte(c))
	}
	return b
}
