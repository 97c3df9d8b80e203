package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The exporters and Merge are held to the fmt formatters and the
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

// fmtWritePrometheus is the reference exposition: the fmt formatter
// WritePrometheus replaced, over named handles.
func fmtWritePrometheus(r *Registry, w io.Writer) error {
	type series struct {
		labels string
		lines  []string
	}
	type family struct {
		name   string
		kind   string
		series []series
	}
	fams := map[string]*family{}
	get := func(raw, kind string) (*family, string) {
		base, labels := fmtSplitPromName(raw)
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
				f.name, fmtPromAddLabel(labels, "le", fmt.Sprint(b)), cum))
		}
		cum += h.counts[len(h.bounds)]
		s.lines = append(s.lines,
			fmt.Sprintf("%s_bucket%s %d", f.name, fmtPromAddLabel(labels, "le", "+Inf"), cum),
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

func fmtSplitPromName(raw string) (base, labels string) {
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
			parts = append(parts, fmt.Sprintf("%s=%q", fmtSanitizePromName(k), v))
		}
		sort.Strings(parts)
		labels = "{" + strings.Join(parts, ",") + "}"
	}
	return fmtSanitizePromName(base), labels
}

func fmtPromAddLabel(labels, k, v string) string {
	kv := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + kv + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + kv + "}"
}

func fmtSanitizePromName(s string) string {
	var b strings.Builder
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

// TestWritePrometheusMatchesFmt: over registries of random names — label
// blocks with and without values, unsorted keys, empty braces, quotes,
// backslashes, newlines, non-ASCII and invalid UTF-8, leading digits, base
// names shared across kinds — the exposition is the fmt formatter's, byte
// for byte. Names whose series the text format cannot tell apart are left
// out: the formatter ordered those by map iteration.
func TestWritePrometheusMatchesFmt(t *testing.T) {
	frags := []string{"a", "b/c", ".", "x_y", "9", "é", "\xff", `"`, `\`, "\n", "{", "}", ",", "=",
		"{k=v}", "{rank=1,ctx=0}", "{ctx=10}", "{ctx=2}", "{}", "{le}", "{z=1,a=2,m=3}", "{k=\"q\"}"}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := New()
		seen := map[string]bool{}
		for i := rng.Intn(40); i >= 0; i-- {
			var raw string
			for j := 1 + rng.Intn(4); j > 0; j-- {
				raw += frags[rng.Intn(len(frags))]
			}
			base, labels := fmtSplitPromName(raw)
			if seen[base+labels] {
				continue
			}
			seen[base+labels] = true
			v := rng.Int63n(2000) - 1000
			switch rng.Intn(4) {
			case 0:
				r.Counter(raw).Add(v)
			case 1:
				r.Gauge(raw).Set(v)
			case 2:
				r.Gauge(raw).SetMax(v)
			default:
				h := r.Histogram(raw, []Time{-5, 0, 10, 1 << 40})
				for k := rng.Intn(4); k > 0; k-- {
					h.Observe(rng.Int63n(100) - 20)
				}
			}
		}
		var want bytes.Buffer
		if err := fmtWritePrometheus(r, &want); err != nil {
			t.Fatal(err)
		}
		if got := promText(t, r); got != want.String() {
			t.Fatalf("seed %d: exposition\n%s\nwant the fmt formatter's\n%s", seed, got, want.String())
		}
	}

	// An exposition larger than one write, into writers that lend their
	// buffer and one that does not.
	r := New()
	for i := 0; i < 3000; i++ {
		r.Histogram(fmt.Sprintf("big/h%d{rank=%d}", i%64, i), DefaultLatencyBounds).Observe(int64(i))
	}
	var want bytes.Buffer
	if err := fmtWritePrometheus(r, &want); err != nil {
		t.Fatal(err)
	}
	if want.Len() < 1<<20 {
		t.Fatalf("the large exposition is %d bytes, want several writes' worth", want.Len())
	}
	if got := promText(t, r); got != want.String() {
		t.Fatal("a large exposition differs from the fmt formatter's")
	}
}

// promText renders r's exposition three ways — into a bytes.Buffer with
// room to lend, a bufio.Writer and a writer that lends no buffer — and
// fails unless they agree.
func promText(t *testing.T, r *Registry) string {
	t.Helper()
	var direct, buffered, plain bytes.Buffer
	direct.Grow(4 << 20) // lends more than one write's worth
	if err := r.WritePrometheus(&direct); err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriterSize(&buffered, 4096)
	if err := r.WritePrometheus(bw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(struct{ io.Writer }{&plain}); err != nil {
		t.Fatal(err)
	}
	if direct.String() != buffered.String() || direct.String() != plain.String() {
		t.Fatal("the exposition depends on the writer it is written to")
	}
	return direct.String()
}
