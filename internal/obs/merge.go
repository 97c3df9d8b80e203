package obs

import "slices"

// NewChild returns an empty registry configured like r (same trace track
// capacity), for a run that records in isolation and is later folded back
// with Merge. Returns nil on a nil receiver, so a disabled parent yields
// disabled children for free.
func (r *Registry) NewChild() *Registry {
	if r == nil {
		return nil
	}
	return New(WithTrackCap(r.trackCap))
}

// Merge folds other into r. The semantics are chosen so that merging
// per-run child registries in submission order reproduces, byte for byte,
// the state a single shared registry would have accumulated had the runs
// recorded into it serially:
//
//   - counters add; an attached field is read at Merge time, so r keeps
//     that sample, not the field;
//   - gauges replay their last write style: SetMax-style gauges combine
//     as a running maximum, Set-style gauges as last-writer-wins (the
//     later Merge call, i.e. the later run, wins);
//   - histograms with identical bounds combine bucket-wise (differing
//     bounds for the same name are a programming error and panic);
//   - each of other's tracks appends its retained records, oldest first,
//     to r's track of the same key, evicting as recording would. Eviction
//     depends only on a track's own order, so every ring ends up as a
//     serial recording would have left it. Sequence numbers are offset by
//     r's count of records, so every cross-track order the exporters'
//     (start, seq) tie-breaks consult is the serial one too. Track totals
//     include the records other had already evicted.
//
// other is left untouched and both registries must share a track
// capacity. Merge into or from a nil registry is a no-op.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	if r.trackCap != other.trackCap {
		panic("obs: Merge between registries with different track capacities")
	}
	for name, c := range other.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range other.gauges {
		if !g.set {
			continue
		}
		if g.isMax {
			r.Gauge(name).SetMax(g.v)
		} else {
			r.Gauge(name).Set(g.v)
		}
	}
	for name, h := range other.hists {
		mine, ok := r.hists[name]
		if !ok {
			mine = NewHistogram(h.bounds)
			r.hists[name] = mine
		}
		if len(mine.bounds) != len(h.bounds) {
			panic("obs: Merge: histogram " + name + " bounds differ")
		}
		for i, b := range h.bounds {
			if mine.bounds[i] != b {
				panic("obs: Merge: histogram " + name + " bounds differ")
			}
		}
		for i, c := range h.counts {
			mine.counts[i] += c
		}
		mine.sum += h.sum
		mine.n += h.n
	}

	for key, t := range other.tracks {
		dst := r.tracks[key]
		if dst == nil {
			dst = &track{}
			r.tracks[key] = dst
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
