package bench

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strings"

	"repro/internal/loggp"
	"repro/internal/network"
	"repro/internal/topology"
)

// A Claim is one statement of the paper's evaluation (Table II, Figs
// 3-11, Eqs 7-9, the ablations), stated once: the paper's value, how the
// run set measures it, and the one band the measurement must fall in.
type Claim struct {
	ID    string // "fig7/per_hop", the TestPaperClaims subtest
	Fig   string // where the paper makes it
	What  string // what is measured
	Paper string // the paper's value, as the paper states it
	Unit  string
	Band  [2]float64 // low and high end, inclusive
	// PaperOnly marks a claim about a configuration only the paper scale
	// runs (Fig 7 at 2048 ranks, Fig 11 at 4096).
	PaperOnly bool
	// Gap names the ROADMAP item a known deviation waits on. A marked
	// claim is expected outside its band and fails inside it, so the mark
	// cannot outlive its gap.
	Gap     string
	Measure func(r *RunSet) float64
}

var inf = math.Inf(1)

// band is [lo, hi]; near is the paper's value v, ± frac of it.
func band(lo, hi float64) [2]float64  { return [2]float64{lo, hi} }
func near(v, frac float64) [2]float64 { return band(v*(1-frac), v*(1+frac)) }

// model is Eqs 7-9 for the adjacent-node pair the Eq 7/8 and Fig 8 runs
// use.
var model = loggp.FromParams(network.DefaultParams(), 1)

// fig7Diameter is the most hops between two nodes of the paper-scale Fig 7
// partition, which its stride-1 run measures.
var fig7Diameter = float64(topology.ForProcs(Paper.Fig7Procs, 16).MaxHops())

// Claims is the reproduction's verdict: `armci-bench report` renders it
// at paper scale (results/report.md) and root TestPaperClaims judges it at
// both scales. Each row reads the grids its figure prints, so it judges
// the numbers results/ commits.
var Claims = []Claim{
	tableII("alpha", "endpoint space", "4 B", "B", band(4, 4)),
	tableII("beta", "endpoint creation", "0.3 us", "us", near(0.3, 0.1)),
	tableII("gamma", "memory region space", "8 B", "B", band(8, 8)),
	tableII("delta", "memory region creation", "43 us", "us", near(43, 0.1)),
	tableII("context", "context creation", "3821-4271 us", "us", band(3821, 4271)),

	{ID: "fig3/get16", Fig: "Fig 3", What: "get latency, 16 B", Paper: "2.89 us", Unit: "us", Band: near(2.89, 0.05),
		Measure: func(r *RunSet) float64 { return r.Grid("3").At("16", "get_us") }},
	{ID: "fig3/put16", Fig: "Fig 3", What: "put latency, 16 B", Paper: "2.7 us", Unit: "us", Band: near(2.7, 0.05),
		Measure: func(r *RunSet) float64 { return r.Grid("3").At("16", "put_us") }},
	{ID: "fig3/dip", Fig: "Fig 3", What: "dip at 256 B: get(128 B) - get(256 B)", Paper: "present", Unit: "ns", Band: band(1, inf),
		Measure: func(r *RunSet) float64 {
			return 1000 * (r.Grid("3").At("128", "get_us") - r.Grid("3").At("256", "get_us"))
		}},
	{ID: "fig3/grows", Fig: "Fig 3", What: "steps from 256 B up where get or put latency falls", Paper: "none: latency grows with size", Unit: "", Band: band(0, 0),
		Measure: func(r *RunSet) float64 {
			g := r.Grid("3")
			i := slices.Index(g.Column("bytes"), 256)
			return falls(g.Column("get_us")[i:]) + falls(g.Column("put_us")[i:])
		}},

	{ID: "fig4/peak", Fig: "Fig 4", What: "peak put bandwidth", Paper: "1775 MB/s", Unit: "MB/s", Band: near(1775, 0.03),
		Measure: func(r *RunSet) float64 { return slices.Max(r.Grid("4").Column("put_MBs")) }},
	{ID: "fig4/get_lags", Fig: "Fig 4", What: "get / put bandwidth, 512 B", Paper: "below 1 until ~8 KB", Unit: "x", Band: band(0, 0.99),
		Measure: func(r *RunSet) float64 { return at(r.Grid("4"), "512", "get_MBs", "put_MBs") }},
	{ID: "fig4/converges", Fig: "Fig 4", What: "get / put bandwidth, largest size", Paper: "1 (both reach peak)", Unit: "x", Band: band(0.95, 1.05),
		Measure: func(r *RunSet) float64 { return final(ratios(r.Grid("4"), "get_MBs", "put_MBs")) }},

	{ID: "fig5/4k", Fig: "Fig 5", What: "latency per byte, 4 KB", Paper: "~1 ns/B beyond 4 KB", Unit: "ns/B", Band: band(0.75, 1.5),
		Measure: func(r *RunSet) float64 { return r.Grid("5").At("4096", "ns_per_byte") }},
	{ID: "fig5/falls", Fig: "Fig 5", What: "sizes where latency per byte rises", Paper: "none", Unit: "", Band: band(0, 0),
		Measure: func(r *RunSet) float64 { return rises(r.Grid("5").Column("ns_per_byte")) }},
	{ID: "fig5/wire", Fig: "Fig 5", What: "latency per byte at the largest size / wire cost (1 / peak)", Paper: "-> 1", Unit: "x", Band: band(1, 1.1),
		Measure: func(r *RunSet) float64 {
			return final(r.Grid("5").Column("ns_per_byte")) * network.DefaultParams().PeakPayloadBandwidth() / 1000
		}},

	{ID: "fig6/nhalf", Fig: "Fig 6", What: "N1/2: smallest size at half the available peak", Paper: "2 KB", Unit: "B", Band: band(2048, 4096),
		Measure: func(r *RunSet) float64 { return firstAtLeast(r.Grid("6"), 0.5) }},
	{ID: "fig6/90pct", Fig: "Fig 6", What: "smallest size at 90 % of the available peak", Paper: "~16 KB", Unit: "B", Band: band(16384, 32768),
		Measure: func(r *RunSet) float64 { return firstAtLeast(r.Grid("6"), 0.9) }},
	{ID: "fig6/peak", Fig: "Fig 6", What: "efficiency, largest size", Paper: "-> 1", Unit: "", Band: band(0.97, 1),
		Measure: func(r *RunSet) float64 { return final(r.Grid("6").Column("efficiency")) }},

	{ID: "fig7/min", Fig: "Fig 7", What: "minimum latency", Paper: "2.89 us", Unit: "us", Band: near(2.89, 0.05),
		Measure: func(r *RunSet) float64 { return slices.Min(r.Grid("7").Column("latency_us")) }},
	{ID: "fig7/max", Fig: "Fig 7", What: "maximum latency, 2048 ranks", Paper: "3.38 us", Unit: "us", Band: near(3.38, 0.05), PaperOnly: true,
		Measure: func(r *RunSet) float64 { return slices.Max(r.Grid("7").Column("latency_us")) }},
	{ID: "fig7/spread", Fig: "Fig 7", What: "maximum - minimum latency, 2048 ranks", Paper: "0.49 us", Unit: "us", Band: band(0.3, 0.6), PaperOnly: true,
		Measure: func(r *RunSet) float64 {
			return slices.Max(r.Grid("7").Column("latency_us")) - slices.Min(r.Grid("7").Column("latency_us"))
		}},
	{ID: "fig7/reach", Fig: "Fig 7", What: "largest hop count measured, 2048 ranks", Paper: "the partition's diameter", Unit: "hops", Band: band(fig7Diameter, fig7Diameter), PaperOnly: true,
		Measure: func(r *RunSet) float64 { return slices.Max(r.Grid("7").Column("hops")) }},
	{ID: "fig7/per_hop", Fig: "Fig 7", What: "latency step per hop: slope over the hop shells >= 1", Paper: "70 ns (35 ns/hop/direction)", Unit: "ns", Band: near(70, 0.05),
		Measure: func(r *RunSet) float64 { return 1000 * shellSlope(r.Grid("7")) }},

	{ID: "fig8/tracks", Fig: "Fig 8", What: "strided put bandwidth vs Fig 4's at l0 = chunk size, worst size", Paper: "relatively identical to Fig 4", Unit: "%", Band: band(0, 5),
		Measure: func(r *RunSet) float64 {
			f4, worst := r.Grid("4"), 0.0
			for _, row := range r.Grid("8").Rows {
				if c := f4.At(row[0], "put_MBs"); !math.IsNaN(c) {
					worst = max(worst, math.Abs(100*(number(row[2])/c-1)))
				}
			}
			return worst
		}},
	{ID: "fig8/rises", Fig: "Fig 8", What: "chunk sizes where strided get bandwidth falls as l0 grows", Paper: "none: bandwidth rises with l0", Unit: "", Band: band(0, 0),
		Measure: func(r *RunSet) float64 { return falls(r.Grid("8").Column("get_MBs")) }},
	{ID: "fig8/peak", Fig: "Fig 8", What: "strided get bandwidth, 1 MB chunks", Paper: "Fig 4's peak, 1775 MB/s", Unit: "MB/s", Band: near(1775, 0.03),
		Measure: func(r *RunSet) float64 { return r.Grid("8").At("1048576", "get_MBs") }},

	{ID: "fig9/idle", Fig: "Fig 9", What: "D / AT latency with rank 0 idle, worst p", Paper: "comparable", Unit: "x", Band: band(0.8, 1.25),
		Measure: func(r *RunSet) float64 { return slices.Max(ratios(r.Grid("9"), "D_idle_us", "AT_idle_us")) }},
	{ID: "fig9/compute", Fig: "Fig 9", What: "D latency with rank 0 computing in 300 us chunks, smallest p", Paper: ">= t_compute / 2", Unit: "us", Band: band(150, inf),
		Measure: func(r *RunSet) float64 { return slices.Min(r.Grid("9").Column("D_compute_us")) }},
	{ID: "fig9/immune", Fig: "Fig 9", What: "AT latency computing / idle, worst p", Paper: "unaffected", Unit: "x", Band: band(0.95, 1.05),
		Measure: func(r *RunSet) float64 { return slices.Max(ratios(r.Grid("9"), "AT_compute_us", "AT_idle_us")) }},
	{ID: "fig9/linear", Fig: "Fig 9", What: "AT latency per process, largest p / next largest", Paper: "grows linearly with p", Unit: "x", Band: band(0.8, 1.3),
		Measure: func(r *RunSet) float64 {
			return growth(ratios(r.Grid("9"), "AT_idle_us", "procs")[len(r.Scale.Fig9Procs)-2:])
		}},

	{ID: "fig11/headline", Fig: "Fig 11", What: "AT reduction of SCF time, 4096 ranks", Paper: "up to 30 %", Unit: "%", Band: band(20, 40),
		PaperOnly: true, Gap: "ROADMAP item 3",
		Measure: func(r *RunSet) float64 { return final(r.Grid("11").Column("reduction_pct")) }},
	{ID: "fig11/every_p", Fig: "Fig 11", What: "AT reduction of SCF time, smallest over p", Paper: "AT faster at every p", Unit: "%", Band: band(5, 100),
		Measure: func(r *RunSet) float64 { return slices.Min(r.Grid("11").Column("reduction_pct")) }},
	{ID: "fig11/counter", Fig: "Fig 11", What: "AT / D time in the load-balance counter, worst p", Paper: "reduces sharply", Unit: "x", Band: band(0, 0.1),
		Measure: func(r *RunSet) float64 { return slices.Max(ratios(r.Grid("11"), "AT_counter_ms", "D_counter_ms")) }},
	{ID: "fig11/energy", Fig: "Fig 11", What: "process counts where D and AT energies differ", Paper: "none (bit-identical)", Unit: "", Band: band(0, 0),
		Measure: func(r *RunSet) float64 { return float64(strings.Count(fmt.Sprint(r.Grid("11").Notes), "WARNING")) }},

	{ID: "eq7/model", Fig: "Eq 7", What: "RDMA get vs T_rdma, worst size", Paper: "o + L + (m-1)G", Unit: "%", Band: band(0, 10),
		Measure: func(r *RunSet) float64 { return modelError(r.Grid("eq"), "rdma_us", model.TRdma) }},
	{ID: "eq8/model", Fig: "Eq 8", What: "fallback get vs T_fallback, worst size", Paper: "T_rdma + a remote o", Unit: "%", Band: band(0, 10),
		Measure: func(r *RunSet) float64 { return modelError(r.Grid("eq"), "fallback_us", model.TFallback) }},
	{ID: "eq8/slower", Fig: "Eq 8", What: "fallback - RDMA get latency, smallest over sizes", Paper: "a remote o at every size", Unit: "ns", Band: band(1, inf),
		Measure: func(r *RunSet) float64 {
			rdma, gap := r.Grid("eq").Column("rdma_us"), inf
			for i, f := range r.Grid("eq").Column("fallback_us") {
				gap = min(gap, f-rdma[i])
			}
			return 1000 * gap
		}},
	{ID: "eq8/small", Fig: "Eq 8", What: "fallback / RDMA get latency, 16 B", Paper: "the remote o shows on small gets", Unit: "x", Band: band(1.05, inf),
		Measure: func(r *RunSet) float64 { return at(r.Grid("eq"), "16", "fallback_us", "rdma_us") }},
	{ID: "eq8/amortizes", Fig: "Eq 8", What: "fallback / RDMA get latency, largest size over smallest", Paper: "the additive o amortizes", Unit: "x", Band: band(0, 0.95),
		Measure: func(r *RunSet) float64 { return growth(ratios(r.Grid("eq"), "fallback_us", "rdma_us")) }},
	{ID: "eq9/model", Fig: "Eq 9", What: "strided get of 1 MB in 1 KB chunks vs T_strided", Paper: "o m/l0 + m G", Unit: "%", Band: band(0, 10),
		Measure: func(r *RunSet) float64 {
			return math.Abs(100 * (float64(1<<20)/r.Grid("8").At("1024", "get_MBs")*1000/model.TStrided(1<<20, 1024) - 1))
		}},

	{ID: "ctx/isolates", Fig: "§III.D", What: "main-thread get latency, 2 contexts / 1", Paper: "lower with rho = 2", Unit: "x", Band: band(0, 0.9),
		Measure: func(r *RunSet) float64 { return growth(r.Grid("ctx").Column("main_get_us")) }},
	{ID: "cons/fences", Fig: "§III.E", What: "fences, per-region cs_mr / naive cs_tgt", Paper: "false-positive fences gone", Unit: "x", Band: band(0, 0.1),
		Measure: func(r *RunSet) float64 { return growth(r.Grid("cons").Column("fences")) }},
	{ID: "cons/time", Fig: "§III.E", What: "time, per-region cs_mr / naive cs_tgt", Paper: "faster", Unit: "x", Band: band(0, 0.95),
		Measure: func(r *RunSet) float64 { return growth(r.Grid("cons").Column("time_ms")) }},
	{ID: "strided/skinny", Fig: "§III.C.2", What: "chunk list / pack-unpack time, 64 B chunks", Paper: "packing wins tall-skinny patches", Unit: "x", Band: band(1, inf),
		Measure: func(r *RunSet) float64 { return at(r.Grid("strided"), "64", "chunks_us", "packed_us") }},
	{ID: "strided/wide", Fig: "§III.C.2", What: "chunk list / pack-unpack time, 64 KB chunks", Paper: "the RDMA chunk list wins", Unit: "x", Band: band(0, 1),
		Measure: func(r *RunSet) float64 { return at(r.Grid("strided"), "65536", "chunks_us", "packed_us") }},
	{ID: "route/never_worse", Fig: "§II.A", What: "adaptive / DOR hotspot makespan, worst flow count", Paper: "(what-if)", Unit: "x", Band: band(0, 1),
		Measure: func(r *RunSet) float64 { return slices.Max(ratios(r.Grid("route"), "adaptive_us", "DOR_us")) }},
	{ID: "route/relief", Fig: "§II.A", What: "adaptive / DOR hotspot makespan, most flows", Paper: "(what-if) relieves hotspots", Unit: "x", Band: band(0, 0.9),
		Measure: func(r *RunSet) float64 { return final(ratios(r.Grid("route"), "adaptive_us", "DOR_us")) }},
	{ID: "hw/faster", Fig: "§IV.B.3", What: "hardware / software AMO latency, worst p", Paper: "(what-if) NIC atomics", Unit: "x", Band: band(0, 1),
		Measure: func(r *RunSet) float64 { return slices.Max(ratios(r.Grid("hw"), "hw_amo_us", "AT_software_us")) }},
	{ID: "hw/flat", Fig: "§IV.B.3", What: "hardware / software AMO latency, largest p", Paper: "flat vs linear in p", Unit: "x", Band: band(0, 0.25),
		Measure: func(r *RunSet) float64 { return final(ratios(r.Grid("hw"), "hw_amo_us", "AT_software_us")) }},
}

func tableII(id, attr, paper, unit string, b [2]float64) Claim {
	return Claim{ID: "table2/" + id, Fig: "Table II", What: attr, Paper: paper, Unit: unit, Band: b,
		Measure: func(r *RunSet) float64 { return r.Grid("ii").At(attr, "measured") }}
}

// A Verdict is one claim judged on one run set.
type Verdict struct {
	*Claim
	Measured float64
}

// Evaluate judges every claim that applies at r's scale, in table order.
func Evaluate(r *RunSet) []Verdict {
	var out []Verdict
	for i := range Claims {
		if c := &Claims[i]; !c.PaperOnly || r.Scale.Name == Paper.Name {
			out = append(out, Verdict{c, c.Measure(r)})
		}
	}
	return out
}

// OK reports whether the verdict holds: in the band, or a marked
// deviation still outside it.
func (v Verdict) OK() bool {
	in := v.Band[0] <= v.Measured && v.Measured <= v.Band[1]
	return in == (v.Gap == "")
}

// Cells is the verdict as a report row: claim, paper, measured, band,
// verdict.
func (v Verdict) Cells() []string {
	status := "PASS"
	switch {
	case v.OK() && v.Gap != "":
		status = "deviation (" + v.Gap + ")"
	case !v.OK() && v.Gap == "":
		status = "**FAIL**"
	case !v.OK():
		status = "**FAIL**: in the band but marked as a deviation (" + v.Gap + ")"
	}
	lo, hi := v.Band[0], v.Band[1]
	b := num(lo) + " - " + num(hi)
	switch {
	case lo == hi:
		b = num(lo)
	case math.IsInf(hi, 1):
		b = ">= " + num(lo)
	}
	return []string{v.Fig + ": " + v.What, v.Paper, strings.TrimSpace(num(v.Measured) + " " + v.Unit), b, status}
}

// num prints an integer as one and anything else to four significant
// digits.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// WriteReport renders r's verdicts as the markdown table `armci-bench
// report` prints and returns how many failed.
func WriteReport(w io.Writer, r *RunSet) (failed int) {
	vs := Evaluate(r)
	deviations := 0
	fmt.Fprintf(w, "# Reproduction verdict (%s scale)\n\n", r.Scale.Name)
	fmt.Fprintln(w, "| Claim | Paper | Measured | Band | Verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, v := range vs {
		fmt.Fprintf(w, "| %s |\n", strings.Join(v.Cells(), " | "))
		switch {
		case !v.OK():
			failed++
		case v.Gap != "":
			deviations++
		}
	}
	fmt.Fprintf(w, "\n%d claims: %d pass, %d fail; known deviations: %d\n",
		len(vs), len(vs)-deviations-failed, failed, deviations)
	return failed
}

// final is xs's last element; growth is final over the first.
func final(xs []float64) float64  { return xs[len(xs)-1] }
func growth(xs []float64) float64 { return final(xs) / xs[0] }

// at is a / b in the row keyed key.
func at(g *Grid, key, a, b string) float64 { return g.At(key, a) / g.At(key, b) }

// ratios is a / b row by row.
func ratios(g *Grid, a, b string) []float64 {
	x, y := g.Column(a), g.Column(b)
	for i := range x {
		x[i] /= y[i]
	}
	return x
}

// rises counts the steps where xs goes up.
func rises(xs []float64) float64 {
	n := 0.0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[i-1] {
			n++
		}
	}
	return n
}

// falls counts the steps where xs goes down; it reverses xs.
func falls(xs []float64) float64 {
	slices.Reverse(xs)
	return rises(xs)
}

// firstAtLeast is the smallest size in a Fig 6 grid whose efficiency
// reaches eff, NaN if none does.
func firstAtLeast(g *Grid, eff float64) float64 {
	for i, e := range g.Column("efficiency") {
		if e >= eff {
			return g.Column("bytes")[i]
		}
	}
	return math.NaN()
}

// shellSlope is Fig 7's per-hop delta: the least-squares slope of mean
// latency over hop shells >= 1. Shell 0 (same node) is excluded because it
// shares the loopback floor with shell 1.
func shellSlope(g *Grid) float64 {
	sum, n := map[float64]float64{}, map[float64]float64{}
	lat := g.Column("latency_us")
	for i, h := range g.Column("hops") {
		if h >= 1 {
			sum[h] += lat[i]
			n[h]++
		}
	}
	var sx, sy, sxx, sxy float64
	for _, h := range slices.Sorted(maps.Keys(sum)) { // a fixed order: the report prints the result
		y := sum[h] / n[h]
		sx, sy, sxx, sxy = sx+h, sy+y, sxx+float64(h*h), sxy+float64(h*y)
	}
	k := float64(len(sum))
	return (float64(k*sxy) - float64(sx*sy)) / (float64(k*sxx) - float64(sx*sx))
}

// modelError is the worst relative distance, in percent, between an Eq
// 7/8 grid's column (us per get) and the model's prediction (ns).
func modelError(g *Grid, col string, predict func(bytes int) float64) float64 {
	worst := 0.0
	us := g.Column(col)
	for i, m := range g.Column("bytes") {
		worst = max(worst, math.Abs(100*(us[i]*1000/predict(int(m))-1)))
	}
	return worst
}
