// Command obs-report renders a registry's Prometheus text exposition —
// the file cmd/armci-bench writes with -metrics, or a live simd /metrics
// endpoint — as one readable report: a table per layer (armci, pami,
// network, sim, serve, ...) with each family's series aggregated, then the
// sections whose families are present: the lane engine's Amdahl profile,
// the top-N hottest torus links with their utilization of the simulated
// run, and the cluster's response-source breakdown (hot LRU, disk store,
// a peer's copy, proxied to the ring owner, executed cold).
//
// Usage:
//
//	armci-bench fig 5 -metrics results/metrics.txt
//	obs-report -metrics results/metrics.txt -top 10
//	obs-report -metrics http://127.0.0.1:8081/metrics   # or just 127.0.0.1:8081
//
// With -follow, obs-report instead attaches to a live simd run's SSE
// stream and renders each metric snapshot as it arrives — one line per
// delivered sweep point, then the terminal result:
//
//	obs-report -follow http://127.0.0.1:8080/v1/runs/<id>
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program behind main: parse args, render, and return
// the process exit status (0 ok, 1 unreadable input, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obs-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	src := fs.String("metrics", "results/metrics.txt", "Prometheus text to render: a file, a URL, or a simd host:port")
	topN := fs.Int("top", 10, "how many hottest links to list")
	followURL := fs.String("follow", "", "follow a live simd run instead: URL of /v1/runs/<id>")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	if *followURL != "" {
		err = follow(stdout, *followURL, *topN)
	} else {
		err = report(stdout, *src, *topN)
	}
	if err != nil {
		fmt.Fprintf(stderr, "obs-report: %v\n", err)
		return 1
	}
	return 0
}

// report renders the exposition at src.
func report(w io.Writer, src string, topN int) error {
	text, err := readExposition(src)
	if err != nil {
		return err
	}
	fams, err := parseExposition(text)
	if err != nil {
		return fmt.Errorf("%s: %w", src, err)
	}
	fmt.Fprintf(w, "# Observability report (%s)\n", src)
	renderLayers(w, fams)
	renderLaneEngine(w, fams)
	renderLinks(w, fams, topN)
	renderCluster(w, fams)
	return nil
}

// renderLayers prints one table per layer — the family name's prefix up to
// its first underscore — with every family of it: a counter's sum over
// its series, a gauge's max, a histogram's count and mean.
func renderLayers(w io.Writer, fams exposition) {
	layers := map[string][]string{}
	for name := range fams {
		layer, _, _ := strings.Cut(name, "_")
		layers[layer] = append(layers[layer], name)
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)

	for _, layer := range names {
		fmt.Fprintf(w, "\n## %s\n\n", layer)
		fmt.Fprintln(w, "| metric | kind | series | value |")
		fmt.Fprintln(w, "|---|---|---:|---|")
		members := layers[layer]
		sort.Strings(members)
		for _, name := range members {
			f := fams[name]
			var val string
			switch n := f.count(); {
			case f.kind == "gauge":
				val = fmt.Sprintf("max %d", f.value())
			case f.kind != "histogram":
				val = strconv.FormatInt(f.value(), 10)
			case n == 0:
				val = "count 0"
			case strings.HasSuffix(name, "_ns"):
				val = fmt.Sprintf("count %d, mean %.2f us", n, float64(f.value())/float64(n)/1000)
			default:
				val = fmt.Sprintf("count %d, mean %.1f", n, float64(f.value())/float64(n))
			}
			fmt.Fprintf(w, "| %s | %s | %d | %s |\n", name, f.kind, len(f.series), val)
		}
	}
}

// renderLaneEngine summarizes the lane engine's round-level telemetry —
// the Amdahl profile of intra-run parallelism: how many window rounds
// ran, how much cross-lane work each round carried, how wide the
// realized windows were, and what fraction of scheduling work was bound
// to the serial coordinator. Without rounds the section is skipped.
func renderLaneEngine(w io.Writer, fams exposition) {
	rounds := fams.value("sim_rounds")
	if rounds == 0 {
		return
	}
	fmt.Fprintln(w, "\n## lane engine (Amdahl profile)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "rounds: %d\n", rounds)
	if f := fams["sim_boundary_ops"]; f != nil {
		fmt.Fprintf(w, "boundary ops: %d (%.2f per round)\n", f.value(), float64(f.value())/float64(rounds))
	}
	if f := fams["sim_events"]; f != nil {
		fmt.Fprintf(w, "events per round: %.2f\n", float64(f.value())/float64(rounds))
	}
	if f := fams["sim_window_width_ns"]; f != nil && f.count() > 0 {
		fmt.Fprintf(w, "realized window width: mean %.2f us over %d windows\n",
			float64(f.value())/float64(f.count())/1000, f.count())
	}
	if f := fams["sim_serial_permille"]; f != nil {
		fmt.Fprintf(w, "serial fraction: %.1f%% of scheduling work bound to the coordinator\n",
			float64(f.value())/10)
	}
}

// renderLinks lists the topN torus links by busy time, each with its
// utilization of the simulated run (sim_final_ns).
func renderLinks(w io.Writer, fams exposition, topN int) {
	f := fams["network_link_busy_ns"]
	if f == nil {
		return
	}
	type lb struct {
		id   int
		busy int64
	}
	var links []lb
	for _, s := range f.series {
		if id, err := strconv.Atoi(s.labels["link"]); err == nil {
			links = append(links, lb{id, s.value})
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].busy != links[j].busy {
			return links[i].busy > links[j].busy
		}
		return links[i].id < links[j].id
	})
	topN = max(0, min(topN, len(links)))
	finalNS := fams.value("sim_final_ns")
	fmt.Fprintf(w, "\n## hottest links (top %d of %d active)\n\n", topN, len(links))
	fmt.Fprintln(w, "| link | busy_us | utilization |")
	fmt.Fprintln(w, "|---:|---:|---:|")
	for _, l := range links[:topN] {
		util := "n/a"
		if finalNS > 0 {
			util = fmt.Sprintf("%.2f%%", 100*float64(l.busy)/float64(finalNS))
		}
		fmt.Fprintf(w, "| %d | %.1f | %s |\n", l.id, float64(l.busy)/1000, util)
	}
}

// renderCluster prints, for a simd exposition (any serve_ family), where
// responses came from and the store and ring health counters. The source
// tiers are disjoint by construction of serveJob's routing order (LRU ->
// disk -> proxy -> shared flight -> peer fill -> cold run), so
// percentages are of their sum.
func renderCluster(w io.Writer, fams exposition) {
	served := false
	for name := range fams {
		served = served || strings.HasPrefix(name, "serve_")
	}
	if !served {
		return
	}
	get := fams.value
	hot := get("serve_cache_hits")
	disk := get("serve_disk_hits")
	peer := get("serve_peer_fills")
	proxied := get("serve_proxied_jobs")
	shared := get("serve_flight_shared")
	// Every cold execution missed every local tier and was neither proxied
	// away nor answered by a peer or a shared in-flight run. A replica
	// without a store counts no disk misses: its LRU misses went on.
	missed := get("serve_disk_misses")
	if fams["serve_store_entries"] == nil {
		missed = get("serve_cache_misses")
	}
	cold := max(0, missed-proxied-peer-shared)
	total := hot + disk + peer + proxied + shared + cold

	fmt.Fprintln(w, "\n## cluster")
	fmt.Fprintln(w)
	if total == 0 {
		fmt.Fprintln(w, "no jobs served yet")
	} else {
		pct := func(v int64) string {
			return fmt.Sprintf("%.1f%%", 100*float64(v)/float64(total))
		}
		fmt.Fprintln(w, "| response source | jobs | share |")
		fmt.Fprintln(w, "|---|---:|---:|")
		for _, row := range []struct {
			what string
			n    int64
		}{
			{"hot LRU hit", hot}, {"disk store hit", disk}, {"filled from peer", peer},
			{"proxied to ring owner", proxied}, {"shared in-flight run", shared}, {"executed cold", cold},
		} {
			fmt.Fprintf(w, "| %s | %d | %s |\n", row.what, row.n, pct(row.n))
		}
		fmt.Fprintf(w, "\nanswered without executing: %s of %d jobs\n", pct(total-cold), total)
	}
	fmt.Fprintf(w, "store: %d entries, %d quarantined, %d put errors, %d exports served\n",
		get("serve_store_entries"), get("serve_store_quarantined"),
		get("serve_store_put_errors"), get("serve_result_exports"))
	if get("serve_proxy_errors")+get("serve_peer_fill_errors")+get("serve_peer_fill_misses") > 0 {
		fmt.Fprintf(w, "ring: %d proxy errors (fell through to local), %d peer-fill errors, %d peer-fill misses\n",
			get("serve_proxy_errors"), get("serve_peer_fill_errors"), get("serve_peer_fill_misses"))
	}
}

// follow attaches to a simd run's SSE event stream and renders its
// metric snapshots live: a header from the hello event, one line per
// delivered sweep point (progress plus the top counters by value from
// that point's snapshot), and the run's terminal status.
func follow(w io.Writer, runURL string, topN int) error {
	resp, err := http.Get(strings.TrimSuffix(runURL, "/") + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("attach: HTTP %d", resp.StatusCode)
	}

	point := struct{ I, N int }{-1, 0}
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			switch event {
			case "hello":
				var h struct{ ID, Scenario, Format string }
				if err := json.Unmarshal([]byte(data), &h); err != nil {
					return fmt.Errorf("hello: %w", err)
				}
				fmt.Fprintf(w, "run %s  scenario=%s format=%s\n", h.ID, h.Scenario, h.Format)
			case "state":
				var st struct{ State string }
				json.Unmarshal([]byte(data), &st)
				fmt.Fprintf(w, "state %s\n", st.State)
			case "point":
				json.Unmarshal([]byte(data), &point)
			case "metrics":
				var snap struct {
					Counters   map[string]int64           `json:"counters"`
					Gauges     map[string]int64           `json:"gauges"`
					Histograms map[string]json.RawMessage `json:"histograms"`
				}
				if err := json.Unmarshal([]byte(data), &snap); err != nil {
					return fmt.Errorf("metrics snapshot: %w", err)
				}
				fmt.Fprintf(w, "point %d/%d  %d counters, %d gauges, %d histograms",
					point.I+1, point.N, len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
				for _, kv := range topCounters(snap.Counters, topN) {
					fmt.Fprintf(w, "  %s=%d", kv.name, kv.value)
				}
				fmt.Fprintln(w)
			case "dropped":
				fmt.Fprintf(w, "trace budget exhausted: %s\n", data)
			case "done":
				fmt.Fprintf(w, "done %s\n", data)
			case "drain":
				fmt.Fprintln(w, "server draining; stream closed")
			}
		}
	}
	return sc.Err()
}

type counterKV struct {
	name  string
	value int64
}

// topCounters returns the n largest counters, ties broken by name so the
// rendering is deterministic.
func topCounters(counters map[string]int64, n int) []counterKV {
	out := make([]counterKV, 0, len(counters))
	for name, v := range counters {
		out = append(out, counterKV{name, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].value != out[j].value {
			return out[i].value > out[j].value
		}
		return out[i].name < out[j].name
	})
	return out[:max(0, min(n, len(out)))]
}
