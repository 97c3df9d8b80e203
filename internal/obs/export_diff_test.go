package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The exporters and Merge are held to the fmt formatter and the
// sort-and-replay merge they replaced, kept here as the definitions.

// fmtJSONString is the reference string encoding: json.Marshal.
func fmtJSONString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// fmtEventLine is the reference encoding of one record.
func fmtEventLine(rec spanRec, pid, tid int) string {
	var line string
	ts := fmt.Sprintf("%d.%03d", rec.start/1000, rec.start%1000)
	switch rec.phase {
	case 'X':
		dur := rec.end - rec.start
		line = fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%d.%03d,"name":%s`,
			pid, tid, ts, dur/1000, dur%1000, fmtJSONString(rec.name))
	default:
		line = fmt.Sprintf(`{"ph":"i","pid":%d,"tid":%d,"ts":%s,"s":"t","name":%s`,
			pid, tid, ts, fmtJSONString(rec.name))
	}
	if rec.cat != "" {
		line += fmt.Sprintf(`,"cat":%s`, fmtJSONString(rec.cat))
	}
	if rec.hasArg {
		line += fmt.Sprintf(`,"args":{"arg":%d}`, rec.arg)
	}
	return line + "}"
}

// fmtMetaLine is the reference encoding of a metadata event.
func fmtMetaLine(pid, tid int, kind, name string) string {
	return fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":%s,"args":{"name":%s}}`,
		pid, tid, fmtJSONString(kind), fmtJSONString(name))
}

// FuzzTraceLine: every record and metadata line encodes to the reference
// bytes, appended after whatever the buffer already holds.
func FuzzTraceLine(f *testing.F) {
	f.Add(int64(1500), int64(2750), "put", "", int64(0), false, true, 2, 7)
	f.Add(int64(0), int64(0), "wakeup", "net", int64(512), true, false, 3, 0)
	f.Add(int64(-1), int64(5), `a"b`, `c\d`, int64(-9), true, true, 4, 12)
	f.Add(int64(7), int64(5), "a<b", "c>d", int64(0), false, true, 1, 2)
	f.Add(int64(7), int64(5), "a&b", "", int64(0), false, false, 1, 2)
	f.Add(int64(-1500), int64(-2001), "tab\there\n", "\x00\x1f\x7f", int64(math.MinInt64), true, false, 1, 1)
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), "rank-0001", "héllo ✓", int64(math.MaxInt64), false, true, 0, 99999)
	f.Add(int64(999), int64(1000), "\xff\xfe bad utf8", "\u2028", int64(1), true, true, -1, -2)
	f.Fuzz(func(t *testing.T, start, end int64, name, cat string, arg int64, hasArg, span bool, pid, tid int) {
		rec := spanRec{start: start, end: end, name: name, cat: cat, arg: arg, hasArg: hasArg, phase: 'i'}
		if span {
			rec.phase = 'X'
		}
		if got, want := string(appendEventLine([]byte("x"), rec, pid, tid)), "x"+fmtEventLine(rec, pid, tid); got != want {
			t.Fatalf("event line\n got %s\nwant %s", got, want)
		}
		if got, want := string(appendMetaLine([]byte("x"), pid, tid, cat, name)), "x"+fmtMetaLine(pid, tid, cat, name); got != want {
			t.Fatalf("metadata line\n got %s\nwant %s", got, want)
		}
	})
}

// replayMerge is the reference Merge: metrics as Merge folds them, and
// other's retained records replayed through record in seq order across
// all tracks, with the records other had evicted added to the totals.
func replayMerge(r, other *Registry) {
	metrics := *other
	metrics.tracks, metrics.seq = nil, 0
	r.Merge(&metrics)

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
			r.tracks[key].total += evicted
		}
	}
}

// fillRandom records n random records and a few metrics into r, over a
// handful of tracks of every kind, with start times that often tie.
func fillRandom(r *Registry, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		kind := TrackKind(rng.Intn(int(numTrackKinds)))
		id := fmt.Sprintf("t%d", rng.Intn(3))
		start := Time(rng.Intn(40) * 250)
		switch rng.Intn(4) {
		case 0:
			r.Span(kind, id, "op", start, start+Time(rng.Intn(3000)))
		case 1:
			r.SpanArg(kind, id, "xfer", "net", start, start+Time(rng.Intn(3000)), rng.Int63n(4096))
		case 2:
			r.Instant(kind, id, "tick", start)
		default:
			r.InstantArg(kind, id, "amo", "rdma", start, rng.Int63n(10))
		}
		r.Counter(fmt.Sprintf("c%d", rng.Intn(3))).Add(1)
		r.Gauge("max").SetMax(start)
		r.Histogram("lat", []Time{500, 5000}).Observe(start)
	}
}

// exported renders everything an exporter can see of r; seq is cleared
// from Events because only its order, never its value, is observable.
func exported(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if err := r.SnapshotJSON(&b); err != nil {
		t.Fatal(err)
	}
	for k := TrackKind(0); k < numTrackKinds; k++ {
		evs := r.Events(k, nil)
		for i := range evs {
			evs[i].seq = 0
		}
		fmt.Fprintf(&b, "\n%v %d %+v", k, r.EventsTotal(k), evs)
	}
	return b.String()
}

// TestMergeMatchesReplay: over random registries — rings under, at and far
// past capacity, a parent that already holds records, merges one after
// another and merges of merges — Merge leaves what replayMerge leaves,
// and recording afterwards still agrees.
func TestMergeMatchesReplay(t *testing.T) {
	for _, capacity := range []int{1, 3, 64} {
		for seed := int64(0); seed < 40; seed++ {
			// build makes a parent and three children, the same ones for
			// the same seed, sized from empty to four times the capacity.
			build := func() (*Registry, [3]*Registry) {
				rng := rand.New(rand.NewSource(seed))
				parent := New(WithTrackCap(capacity))
				fillRandom(parent, rng, rng.Intn(2*capacity+1))
				var kids [3]*Registry
				for i := range kids {
					kids[i] = parent.NewChild()
					fillRandom(kids[i], rng, rng.Intn(4*capacity*int(numTrackKinds)+1))
				}
				return parent, kids
			}
			nested := seed%2 == 1
			merge := func(fold func(r, other *Registry)) string {
				parent, kids := build()
				if nested { // kid 0 takes kid 1, which first took kid 2
					fold(kids[1], kids[2])
					fold(kids[0], kids[1])
					fold(parent, kids[0])
				} else {
					for _, kid := range kids {
						fold(parent, kid)
					}
				}
				out := exported(t, parent)
				fillRandom(parent, rand.New(rand.NewSource(-seed)), capacity+2)
				return out + "\nafter more recording:\n" + exported(t, parent)
			}
			got, want := merge((*Registry).Merge), merge(replayMerge)
			if got != want {
				t.Fatalf("cap %d seed %d nested %v: Merge differs from replay\n--- Merge ---\n%s\n--- replay ---\n%s",
					capacity, seed, nested, got, want)
			}
		}
	}
}

// TestEmitLimitIsPrefix: a limited Emit appends a prefix of the unlimited
// lines and reports the same total, and the streamer it leaves behind
// numbers the next registry's tracks as an unlimited one would.
func TestEmitLimitIsPrefix(t *testing.T) {
	first := func() *Registry {
		r := New()
		r.Span(TrackRank, "rank1", "get", 10, 30)
		r.Span(TrackRank, "rank0", "put", 5, 20)
		r.SpanArg(TrackLink, "x+", "xfer", "net", 12, 18, 64)
		r.Instant(TrackRank, "rank0", "fence", 20)
		r.Instant(TrackLink, "x+", "drop", 12)
		r.Span(TrackRank, "rank1", "acc", 30, 45)
		return r
	}
	second := New()
	second.Span(TrackRank, "rank0", "put", 50, 60)
	second.Span(TrackProgress, "async0", "advance", 52, 58)
	second.Span(TrackRank, "rank2", "get", 55, 70)

	full := NewTraceStreamer()
	all := emitLines(full, first())
	const meta = 5 // ranks, links; rank0, rank1, x+
	if len(all) != meta+6 {
		t.Fatalf("unlimited Emit gave %d lines, want %d:\n%s", len(all), meta+6, strings.Join(all, "\n"))
	}
	next := emitLines(full, second)

	for _, limit := range []int{0, 1, meta - 2, meta, meta + 3, len(all), len(all) + 5} {
		ts := NewTraceStreamer()
		b, kept, total := ts.Emit([]byte("["), first(), "\n", limit)
		if total != len(all) || kept != min(limit, len(all)) {
			t.Fatalf("limit %d: kept %d of %d, want %d of %d", limit, kept, total, min(limit, len(all)), len(all))
		}
		want := "[" + strings.Join(all[:kept], "\n")
		if string(b) != want {
			t.Fatalf("limit %d: emitted\n%s\nwant\n%s", limit, b, want)
		}
		if got := emitLines(ts, second); !reflect.DeepEqual(got, next) {
			t.Fatalf("limit %d: the next Emit gave\n%s\nwant\n%s", limit, strings.Join(got, "\n"), strings.Join(next, "\n"))
		}
	}
}

// TestMergeAllocBudget: a merge allocates per track, never per record, so
// folding a child costs the same at 16 and at 1024 records a track.
func TestMergeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const tracks = 8
	allocs := func(perTrack int) float64 {
		child := New()
		for i := 0; i < tracks*perTrack; i++ {
			at := Time(i)
			child.Span(TrackRank, fmt.Sprintf("rank-%d", i%tracks), "op", at, at+5)
		}
		child.Counter("ops").Add(1)
		return testing.AllocsPerRun(20, func() { New().Merge(child) })
	}
	small, large := allocs(16), allocs(1024)
	t.Logf("merge of %d tracks: %.0f allocations at 16 records a track, %.0f at 1024", tracks, small, large)
	// Per track: the track, its ring and the map's share; plus New's maps
	// and the counter.
	if budget := float64(4*tracks + 12); large > budget || large != small {
		t.Errorf("merge allocations %.0f (16 a track) and %.0f (1024 a track); want equal and at most %.0f",
			small, large, budget)
	}
}
