// Command obs-report renders the metrics dump produced by the -metrics
// flag of cmd/armci-bench as a readable per-layer summary:
// one table per layer (armci, pami, network, sim) with labeled series
// aggregated under their base metric name, plus the top-N hottest torus
// links by busy time with their utilization of the simulated run.
//
// Usage:
//
//	armci-bench fig 5 -metrics results/metrics.txt
//	obs-report -metrics results/metrics.txt -top 10
//
// With -follow, obs-report instead attaches to a live simd run's SSE
// stream and renders each metric snapshot as it arrives — one line per
// delivered sweep point, then the terminal result:
//
//	obs-report -follow http://127.0.0.1:8080/v1/runs/<id>
//
// With -serve, obs-report reads a simd /metrics endpoint (a URL, or a
// saved Prometheus text file) and renders the serving-layer state: the
// request/cache counters plus a cluster section — where results were
// served from (hot LRU, disk store, a peer's copy, proxied to the ring
// owner, executed cold) and the persistent store's health:
//
//	obs-report -serve http://127.0.0.1:8081/metrics
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric is one aggregated base-name series: counters sum across labeled
// series, gauges keep the max, histograms merge count and sum.
type metric struct {
	kind   string // "counter", "gauge", "hist"
	series int
	value  int64  // counter sum or gauge max
	count  uint64 // hist observations
	sum    int64  // hist total
}

func main() {
	path := flag.String("metrics", "results/metrics.txt", "metrics dump to read")
	topN := flag.Int("top", 10, "how many hottest links to list")
	followURL := flag.String("follow", "", "follow a live simd run instead: URL of /v1/runs/<id>")
	serveSrc := flag.String("serve", "", "render a simd /metrics exposition instead: URL or saved Prometheus text file")
	flag.Parse()

	if *followURL != "" {
		if err := follow(*followURL, *topN); err != nil {
			fmt.Fprintf(os.Stderr, "obs-report: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *serveSrc != "" {
		if err := serveReport(*serveSrc); err != nil {
			fmt.Fprintf(os.Stderr, "obs-report: %v\n", err)
			os.Exit(1)
		}
		return
	}

	f, err := os.Open(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obs-report: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()

	agg := map[string]*metric{} // base name -> aggregate
	linkBusy := map[int]int64{} // link id -> busy ns
	var finalNS int64

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		kind, name, rest, ok := splitLine(sc.Text())
		if !ok {
			continue
		}
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base = name[:i]
		}
		m := agg[base]
		if m == nil {
			m = &metric{kind: kind}
			agg[base] = m
		}
		m.series++
		switch kind {
		case "counter", "gauge":
			v, _ := strconv.ParseInt(rest, 10, 64)
			if kind == "counter" {
				m.value += v
			} else if m.series == 1 || v > m.value {
				m.value = v
			}
		case "hist":
			for _, field := range strings.Fields(rest) {
				if c, found := strings.CutPrefix(field, "count="); found {
					n, _ := strconv.ParseUint(c, 10, 64)
					m.count += n
				} else if s, found := strings.CutPrefix(field, "sum="); found {
					v, _ := strconv.ParseInt(s, 10, 64)
					m.sum += v
				}
			}
		}
		if name == "sim/final_ns" {
			finalNS, _ = strconv.ParseInt(rest, 10, 64)
		}
		if strings.HasPrefix(name, "network/link.busy_ns{link=") {
			id, perr := strconv.Atoi(strings.TrimSuffix(name[len("network/link.busy_ns{link="):], "}"))
			v, _ := strconv.ParseInt(rest, 10, 64)
			if perr == nil {
				linkBusy[id] += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "obs-report: %v\n", err)
		os.Exit(1)
	}

	renderLayers(agg)
	renderLaneEngine(agg)
	renderLinks(linkBusy, finalNS, *topN)
}

// renderLaneEngine summarizes the lane engine's round-level telemetry —
// the Amdahl profile of intra-run parallelism: how many window rounds
// ran, how much cross-lane work each round carried, how wide the
// realized windows were, and what fraction of scheduling work was bound
// to the serial coordinator. Absent metrics (single-queue engine, old
// dumps) skip the section.
func renderLaneEngine(agg map[string]*metric) {
	rounds := agg["sim/rounds"]
	if rounds == nil || rounds.value == 0 {
		return
	}
	fmt.Println("\n## lane engine (Amdahl profile)")
	fmt.Println()
	fmt.Printf("rounds: %d\n", rounds.value)
	if ops := agg["sim/boundary_ops"]; ops != nil {
		fmt.Printf("boundary ops: %d (%.2f per round)\n",
			ops.value, float64(ops.value)/float64(rounds.value))
	}
	if ev := agg["sim/events"]; ev != nil {
		fmt.Printf("events per round: %.2f\n", float64(ev.value)/float64(rounds.value))
	}
	if w := agg["sim/window_width_ns"]; w != nil && w.count > 0 {
		fmt.Printf("realized window width: mean %.2f us over %d windows\n",
			float64(w.sum)/float64(w.count)/1000, w.count)
	}
	if sf := agg["sim/serial_permille"]; sf != nil {
		fmt.Printf("serial fraction: %.1f%% of scheduling work bound to the coordinator\n",
			float64(sf.value)/10)
	}
}

// follow attaches to a simd run's SSE event stream and renders its
// metric snapshots live: a header from the hello event, one line per
// delivered sweep point (progress plus the top counters by value from
// that point's snapshot), and the run's terminal status.
func follow(runURL string, topN int) error {
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
				fmt.Printf("run %s  scenario=%s format=%s\n", h.ID, h.Scenario, h.Format)
			case "state":
				var st struct{ State string }
				json.Unmarshal([]byte(data), &st)
				fmt.Printf("state %s\n", st.State)
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
				fmt.Printf("point %d/%d  %d counters, %d gauges, %d histograms",
					point.I+1, point.N, len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
				for _, kv := range topCounters(snap.Counters, topN) {
					fmt.Printf("  %s=%d", kv.name, kv.value)
				}
				fmt.Println()
			case "dropped":
				fmt.Printf("trace budget exhausted: %s\n", data)
			case "done":
				fmt.Printf("done %s\n", data)
			case "drain":
				fmt.Println("server draining; stream closed")
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
	if n < 0 {
		n = 0
	}
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}

// splitLine parses "kind name rest..." from one metrics line; lines that
// do not start with a known metric kind are skipped.
func splitLine(line string) (kind, name, rest string, ok bool) {
	parts := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(parts) != 3 {
		return "", "", "", false
	}
	switch parts[0] {
	case "counter", "gauge", "hist":
		return parts[0], parts[1], parts[2], true
	}
	return "", "", "", false
}

func renderLayers(agg map[string]*metric) {
	layers := map[string][]string{}
	for base := range agg {
		layer := base
		if i := strings.IndexByte(base, '/'); i >= 0 {
			layer = base[:i]
		}
		layers[layer] = append(layers[layer], base)
	}
	var names []string
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)

	fmt.Println("# Observability report")
	for _, layer := range names {
		fmt.Printf("\n## %s\n\n", layer)
		fmt.Println("| metric | kind | series | value |")
		fmt.Println("|---|---|---:|---|")
		bases := layers[layer]
		sort.Strings(bases)
		for _, base := range bases {
			m := agg[base]
			var val string
			switch m.kind {
			case "counter":
				val = fmt.Sprintf("%d", m.value)
			case "gauge":
				val = fmt.Sprintf("max %d", m.value)
			case "hist":
				if m.count == 0 {
					val = "count 0"
				} else if mean := float64(m.sum) / float64(m.count); strings.HasSuffix(base, "_ns") {
					val = fmt.Sprintf("count %d, mean %.2f us", m.count, mean/1000)
				} else {
					val = fmt.Sprintf("count %d, mean %.1f", m.count, mean)
				}
			}
			fmt.Printf("| %s | %s | %d | %s |\n", base, m.kind, m.series, val)
		}
	}
}

func renderLinks(linkBusy map[int]int64, finalNS int64, topN int) {
	if len(linkBusy) == 0 {
		return
	}
	type lb struct {
		id   int
		busy int64
	}
	var links []lb
	for id, busy := range linkBusy {
		links = append(links, lb{id, busy})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].busy != links[j].busy {
			return links[i].busy > links[j].busy
		}
		return links[i].id < links[j].id
	})
	if topN < 0 {
		topN = 0
	}
	if topN > len(links) {
		topN = len(links)
	}
	fmt.Printf("\n## hottest links (top %d of %d active)\n\n", topN, len(links))
	fmt.Println("| link | busy_us | utilization |")
	fmt.Println("|---:|---:|---:|")
	for _, l := range links[:topN] {
		util := "n/a"
		if finalNS > 0 {
			util = fmt.Sprintf("%.2f%%", 100*float64(l.busy)/float64(finalNS))
		}
		fmt.Printf("| %d | %.1f | %s |\n", l.id, float64(l.busy)/1000, util)
	}
}
