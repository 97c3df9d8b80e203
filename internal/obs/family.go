package obs

import "slices"

// maxLabels is the most labels a family's series carry.
const maxLabels = 2

// Series is one series of a family: its label values, in the order of the
// family's label names, and its value.
type Series struct {
	Labels [maxLabels]int32
	V      int64
}

// compareLabels orders series by their label values.
func compareLabels(a, b Series) int { return slices.Compare(a.Labels[:], b.Labels[:]) }

// family is a set of series that differ only in their integer labels —
// one per rank, per (rank, context) or per link — whose values live in the
// slabs of the layer that owns them. The registry holds the family's
// readers, which it reads when it exports, and what the readers of merged
// registries read, sampled.
type family struct {
	name    string
	keys    [maxLabels]string // label names, in the order the raw name spells them
	nkeys   int
	gauge   bool
	readers []reader
	sampled []Series // label-sorted, one per label set
}

// reader is a layer's slab as a family reads it: n series, the i-th read
// by at.
type reader struct {
	n  int
	at func(i int) (Series, bool)
}

// CounterFamily registers a family of counters read from a layer's slab of
// n series: at(i) returns the i-th series and whether it exists. Exports
// read the slab when they run, and Merge reads it once, into the parent,
// so the slab can go. Each series' labels must differ from the other
// series' of the same slab; a label set read from two slabs of one name,
// in one registry or across a merge, is one series, their values added.
// Registering the name again with other label names panics. No-op on a
// nil registry.
func (r *Registry) CounterFamily(name string, labels []string, n int, at func(i int) (Series, bool)) {
	r.family(name, labels, false, reader{n, at})
}

// GaugeFamily registers a family of high-water-mark gauges read from a
// layer's slab, as CounterFamily does; a label set read from two slabs
// keeps the larger value.
func (r *Registry) GaugeFamily(name string, labels []string, n int, at func(i int) (Series, bool)) {
	r.family(name, labels, true, reader{n, at})
}

func (r *Registry) family(name string, keys []string, gauge bool, rd reader) {
	if r == nil {
		return
	}
	r.checkLive()
	f := r.fams[name]
	if f == nil {
		if len(keys) == 0 || len(keys) > maxLabels {
			panic("obs: a family takes 1 to 2 label names")
		}
		f = &r.store.fams.take(1, 8)[0]
		f.name, f.nkeys, f.gauge = name, copy(f.keys[:], keys), gauge
		put(&r.fams, name, f)
	} else {
		f.check(keys, gauge)
	}
	f.readers = append(f.readers, rd)
}

// labelNames returns the family's label names.
func (f *family) labelNames() []string { return f.keys[:f.nkeys] }

// check panics unless the family has the given label names and kind.
func (f *family) check(keys []string, gauge bool) {
	if !slices.Equal(f.labelNames(), keys) || f.gauge != gauge {
		panic("obs: family " + f.name + " made again with other label names or kind")
	}
}

// series returns the family's series, label-sorted: what its readers read
// now joined with what it sampled. The result may be f.sampled itself.
func (f *family) series() []Series {
	all := f.sampled
	for _, rd := range f.readers {
		all = f.join(all, rd.read())
	}
	return all
}

// read returns the series that exist in the slab now, label-sorted.
func (rd reader) read() []Series {
	n := 0
	for i := range rd.n {
		if _, ok := rd.at(i); ok {
			n++
		}
	}
	out := make([]Series, 0, n)
	for i := range rd.n {
		if s, ok := rd.at(i); ok {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, compareLabels)
	return out
}

// join merges two label-sorted lists into a new one, sized to hold them: a
// label set both hold adds (counters) or keeps the maximum (gauges). An
// empty list returns the other.
func (f *family) join(a, b []Series) []Series {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	n := len(a) + len(b)
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := compareLabels(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			i, j, n = i+1, j+1, n-1
		}
	}
	out := make([]Series, 0, n)
	for len(a) > 0 && len(b) > 0 {
		switch c := compareLabels(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			s := a[0]
			if !f.gauge {
				s.V += b[0].V
			} else if b[0].V > s.V {
				s.V = b[0].V
			}
			out, a, b = append(out, s), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// sample reads the family's readers into its sampled list and drops them,
// so the family no longer keeps their slabs alive, and reports whether any
// series is left to carry.
func (f *family) sample() bool {
	f.sampled, f.readers = f.series(), nil
	return len(f.sampled) > 0
}
