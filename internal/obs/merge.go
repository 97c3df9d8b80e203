package obs

import "sort"

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
//   - trace records are replayed through the normal recording path in
//     their original order, so ring eviction and sequence numbering end
//     up exactly as a serial recording would have left them. Track
//     totals account for records other had already evicted.
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

	// Replay other's retained trace records in recording order (their seq
	// order, across all tracks). record() reassigns r's own sequence
	// numbers, preserving the relative order — which is all the exporters'
	// tie-breaks ever consult.
	type keyedRec struct {
		key trackKey
		rec spanRec
	}
	var recs []keyedRec
	for key, t := range other.tracks {
		for _, rec := range t.ring {
			recs = append(recs, keyedRec{key: key, rec: rec})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].rec.seq < recs[j].rec.seq })
	for _, kr := range recs {
		r.record(kr.key.kind, kr.key.id, kr.rec)
	}
	for key, t := range other.tracks {
		if evicted := t.total - uint64(len(t.ring)); evicted > 0 {
			// The replay above created r.tracks[key]: a track with evictions
			// necessarily has a full (non-empty) ring.
			r.tracks[key].total += evicted
		}
	}
}
