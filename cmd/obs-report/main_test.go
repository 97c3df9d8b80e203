package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// drive runs obs-report in-process and returns its exit status and output.
func drive(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func wantAll(t *testing.T, out string, frags ...string) {
	t.Helper()
	for _, f := range frags {
		if !strings.Contains(out, f) {
			t.Errorf("report lacks %q:\n%s", f, out)
		}
	}
}

// TestReportFig9: the exposition armci-bench -metrics writes for a quick
// Fig 9 run renders as the per-layer tables, the lane engine's profile
// and the hottest links with their utilization — and no cluster section,
// which only a simd exposition has.
func TestReportFig9(t *testing.T) {
	reg := obs.New()
	bench.Fig9(context.Background(), sweep.NewSharded(1, 0, reg), bench.Quick.Fig9Procs, 4)
	path := filepath.Join(t.TempDir(), "metrics.txt")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, stderr := drive(t, "-metrics", path, "-top", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	wantAll(t, out,
		"\n## armci\n", "\n## network\n", "\n## pami\n", "\n## sim\n",
		"| pami_ctx_starve_max_ns | gauge | ",
		"| armci_op_latency_ns | histogram | ",
		"| sim_rounds | counter | 1 | ",
		"## lane engine (Amdahl profile)", "serial fraction: ",
		"## hottest links (top 3 of ")
	if rows := regexp.MustCompile(`(?m)^\| \d+ \| [\d.]+ \| \d+\.\d\d% \|$`).FindAllString(out, -1); len(rows) != 3 {
		t.Errorf("want 3 link rows with a utilization, got %q", rows)
	}
	if strings.Contains(out, "## cluster") {
		t.Error("a simulation's exposition rendered a cluster section")
	}
}

// TestReportServe: a live simd /metrics, read by URL and by host:port
// after one cold run and one repeat, renders the serve layer and a
// cluster section with one job executed cold and one answered from the
// hot LRU.
func TestReportServe(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1, SweepWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	for range 2 {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(`{"scenario":"micro","params":{"sizes":[64],"iters":1}}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/run: HTTP %d", resp.StatusCode)
		}
	}

	for _, src := range []string{ts.URL + "/metrics", strings.TrimPrefix(ts.URL, "http://")} {
		code, out, stderr := drive(t, "-metrics", src)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", src, code, stderr)
		}
		wantAll(t, out,
			"\n## serve\n", "| serve_cache_hits | counter | 1 | 1 |",
			"## cluster",
			"| hot LRU hit | 1 | 50.0% |",
			"| executed cold | 1 | 50.0% |",
			"answered without executing: 50.0% of 2 jobs")
	}
}

// TestBadUsage: the deleted -serve flag and an input that is not there
// each exit non-zero with a message and print no report.
func TestBadUsage(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "none.txt")
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-serve", "127.0.0.1:1"}, 2, "-serve"},
		{[]string{"-metrics", missing}, 1, missing},
	} {
		code, out, stderr := drive(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.msg) || out != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want %d and a message naming %q",
				tc.args, code, out, stderr, tc.code, tc.msg)
		}
	}
}

// fuzzFamilies are the registry names FuzzParseExposition records into:
// two of each kind, with the family name WritePrometheus gives each.
var fuzzFamilies = []struct{ raw, prom, kind string }{
	{"sim/events", "sim_events", "counter"},
	{"network/link.busy_ns", "network_link_busy_ns", "counter"},
	{"sim/final_ns", "sim_final_ns", "gauge"},
	{"pami/ctx.starve_max_ns", "pami_ctx_starve_max_ns", "gauge"},
	{"armci/op.latency_ns", "armci_op_latency_ns", "histogram"},
	{"serve/run.latency_ns", "serve_run_latency_ns", "histogram"},
}

// FuzzParseExposition: parseExposition reads untrusted bytes (a file, any
// URL), so arbitrary input must parse or fail, never panic. The same input
// also drives a registry — four bytes per sample plus up to seven label
// bytes; a share of the counters are fields read through Registry.Attach,
// the rest Add — whose WritePrometheus text must parse back to what was
// recorded:
// every series by its label value, and per family the counter sum, the
// gauge max, the histogram count and sum.
func FuzzParseExposition(f *testing.F) {
	f.Add([]byte("# TYPE a_b counter\na_b{k=\"1\"} 3\na_b 4\n"))
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 2\nx{a=\"\\\"\",} 1.5 17\n"))
	f.Add([]byte{0, 0x83, 5, 0, 'a', ',', '"', 2, 0xc1, 0xff, 0xff, 4, 0x81, 7, 0, 0xff})
	f.Add([]byte{3, 0x81, 5, 0, 'a', 3, 0xc1, 9, 0, 'b', 3, 0, 0xfd, 0xff, 1, 0, 2, 0})
	f.Add([]byte{0, 0xc2, 9, 0, 'x', 'y', 1, 0x40, 3, 1, 0, 0x42, 7, 0, 'x', 'y'})
	f.Fuzz(func(t *testing.T, data []byte) {
		parseExposition(data) // an error or a parse; never a panic

		type want struct {
			value, count int64
		}
		reg := obs.New()
		recorded := make([]map[string]bool, len(fuzzFamilies)) // raw registry names per family
		for len(data) >= 4 {
			fi := int(data[0]) % len(fuzzFamilies)
			fam := fuzzFamilies[fi]
			v := int64(int16(binary.LittleEndian.Uint16(data[2:4])))
			raw := fam.raw
			n := min(int(data[1]&7), len(data)-4)
			if data[1]&0x80 != 0 {
				// The registry's name syntax splits labels at commas.
				raw += "{k=" + strings.ReplaceAll(string(data[4:4+n]), ",", "") + "}"
			}
			switch fam.kind {
			case "counter":
				if data[1]&0x40 != 0 {
					p := new(uint64)
					*p = uint64(binary.LittleEndian.Uint16(data[2:4]))
					reg.Attach(raw, p)
				} else {
					reg.Counter(raw).Add(v)
				}
			case "gauge":
				if data[1]&0x40 != 0 {
					reg.Gauge(raw).SetMax(v)
				} else {
					reg.Gauge(raw).Set(v)
				}
			case "histogram":
				reg.Histogram(raw, obs.DefaultLatencyBounds).Observe(v)
			}
			if recorded[fi] == nil {
				recorded[fi] = map[string]bool{}
			}
			recorded[fi][raw] = true
			data = data[4+n:]
		}
		var text bytes.Buffer
		if err := reg.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		if text.Len() == 0 {
			return // nothing recorded
		}
		got, err := parseExposition(text.Bytes())
		if err != nil {
			t.Fatalf("parse of WritePrometheus text: %v\n%s", err, text.Bytes())
		}

		for fi, names := range recorded {
			fam := fuzzFamilies[fi]
			g := got[fam.prom]
			if names == nil {
				if g != nil {
					t.Errorf("%s: parsed a family nothing recorded", fam.prom)
				}
				continue
			}
			if g == nil || g.kind != fam.kind || len(g.series) != len(names) {
				t.Fatalf("%s: parsed %+v, want a %s of %d series\n%s", fam.prom, g, fam.kind, len(names), text.Bytes())
			}
			bySeries := map[string]want{}
			for _, s := range g.series {
				label, labelled := s.labels["k"]
				if labelled {
					label = "{k=" + label + "}"
				}
				bySeries[fam.raw+label] = want{s.value, s.count}
			}
			var agg want
			first := true
			for raw := range names {
				var w want
				switch fam.kind {
				case "counter":
					w.value = reg.Counter(raw).Value()
					agg.value += w.value
				case "gauge":
					w.value = reg.Gauge(raw).Value()
					if first || w.value > agg.value {
						agg.value = w.value
					}
				case "histogram":
					h := reg.Histogram(raw, obs.DefaultLatencyBounds)
					w = want{h.Sum(), int64(h.Count())}
					agg.value += w.value
					agg.count += w.count
				}
				first = false
				if s, ok := bySeries[raw]; !ok || s != w {
					t.Errorf("%s: parsed %+v (found %v), recorded %+v\n%s", raw, s, ok, w, text.Bytes())
				}
			}
			if g.value() != agg.value || g.count() != agg.count {
				t.Errorf("%s: aggregates value %d count %d, recorded %d and %d",
					fam.prom, g.value(), g.count(), agg.value, agg.count)
			}
		}
	})
}
