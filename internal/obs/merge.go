package obs

import "slices"

// NewChild returns an empty registry configured like r (same trace track
// capacity, so a metrics-only parent has metrics-only children), for a
// run that records in isolation and is later folded back with Merge.
// Returns nil on a nil receiver, so a disabled parent yields disabled
// children for free.
func (r *Registry) NewChild() *Registry {
	if r == nil {
		return nil
	}
	return New(WithTrackCap(r.trackCap))
}

// Merge folds other into r and consumes other. The semantics are chosen so
// that merging per-run child registries in submission order reproduces,
// byte for byte, the state a single shared registry would have
// accumulated had the runs recorded into it serially:
//
//   - a counter, gauge, histogram or family r lacks moves into r as the
//     same object: nothing is re-created by name and no bucket array is
//     copied (r takes a whole map of other's when it has none of the kind);
//   - counters add; every attached field of other's is read at Merge time
//     and dropped, so r keeps that sample, not the field, and does not
//     keep what the field points into alive;
//   - gauges replay their last write style: SetMax-style gauges combine
//     as a running maximum, Set-style gauges as last-writer-wins (the
//     later Merge call, i.e. the later run, wins); a gauge never written
//     is not carried;
//   - histograms with identical bounds combine bucket-wise (differing
//     bounds for the same name are a programming error and panic);
//   - a family's slabs are read once, into a label-sorted list of
//     series that r keeps, so the world they belong to can go; two
//     lists join by label, a series both hold adding (counters) or
//     keeping the maximum (gauges); a family with no series is not
//     carried; two families of one name must have the same label names
//     and kind;
//   - each of other's tracks appends its retained records, oldest first,
//     to r's track of the same key, evicting as recording would. Eviction
//     depends only on a track's own order, so every ring ends up as a
//     serial recording would have left it. Sequence numbers are offset by
//     r's count of records, so every cross-track order the exporters'
//     (start, seq) tie-breaks consult is the serial one too. Track totals
//     include the records other had already evicted.
//
// Afterwards other is retired: r may own its handles now, so nothing may
// record into it or make a handle on it (race builds panic on the latter);
// reading its trace (TraceStreamer.Emit) stays legal. Both registries must
// share a track capacity; two that keep no trace (capacity 0) merge their
// metrics only. Merge into or from a nil registry is a no-op.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	if r.trackCap != other.trackCap {
		panic("obs: Merge between registries with different track capacities")
	}
	other.retired = true
	fold(&r.counters, &other.counters,
		func(c *Counter) bool { c.sample(); return true },
		func(_ string, mine, c *Counter) { c.sample(); mine.v += c.v })
	fold(&r.gauges, &other.gauges,
		func(g *Gauge) bool { return g.set },
		func(_ string, mine, g *Gauge) {
			if g.set {
				mine.merge(g)
			}
		})
	fold(&r.hists, &other.hists,
		func(*Histogram) bool { return true },
		func(name string, mine, h *Histogram) {
			if !slices.Equal(mine.bounds, h.bounds) {
				panic("obs: Merge: histogram " + name + " bounds differ")
			}
			for i, c := range h.counts {
				mine.counts[i] += c
			}
			mine.sum += h.sum
			mine.n += h.n
		})
	fold(&r.fams, &other.fams, (*family).sample,
		func(_ string, mine, f *family) {
			mine.check(f.labelNames(), f.gauge)
			mine.sampled = mine.join(mine.sampled, f.series())
		})

	for key, t := range other.tracks {
		if t.total == 0 {
			continue // resolved, never recorded on: not in the trace
		}
		dst := r.tracks[key]
		if dst == nil {
			dst = &Track{reg: r}
			put(&r.tracks, key, dst)
		}
		if room := r.trackCap - len(dst.ring); room > 0 {
			dst.ring = slices.Grow(dst.ring, min(room, len(t.ring)))
		}
		for _, part := range [2][]spanRec{t.ring[t.head:], t.ring[:t.head]} {
			for _, rec := range part {
				rec.seq += r.seq
				dst.push(rec, r.trackCap)
			}
		}
		dst.total += t.total
	}
	r.seq += other.seq
}

// Sample reads into r what its layers hold for it — attached fields and
// family slabs — as Merge reads what it moves: r reads no layer
// afterwards, so their owner may reuse them, and its exports and merges
// give the bytes they would have. A no-op on a nil registry.
func (r *Registry) Sample() {
	if r == nil {
		return
	}
	for _, c := range r.counters {
		c.sample()
	}
	for _, f := range r.fams {
		f.sample()
	}
}

// fold merges the entries of *src into *dst: one dst lacks moves, if move
// (which readies it) says to carry it; one both hold is folded by add.
// When dst holds nothing it takes src's map whole, leaving src dst's.
func fold[V any](dst, src *map[string]V, move func(V) bool, add func(name string, mine, v V)) {
	if len(*dst) == 0 {
		*dst, *src = *src, *dst
		for name, v := range *dst {
			if !move(v) {
				delete(*dst, name)
			}
		}
		return
	}
	for name, v := range *src {
		if mine, ok := (*dst)[name]; ok {
			add(name, mine, v)
		} else if move(v) {
			(*dst)[name] = v
		}
	}
}
