package main

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/network"
	"repro/internal/nwchem"
	"repro/internal/sim"
)

type check struct {
	name     string
	paper    string
	measured string
	pass     bool
}

// cmdReport runs a reduced-scale version of every experiment and emits a
// self-contained markdown report with paper-vs-measured rows and
// PASS/FAIL shape checks — the quickest way to audit the reproduction
// end to end; it exits 1 on any FAIL row.
// Full-scale numbers (Fig 7 at 2048 ranks, Fig 11 at 1024-4096) come
// from `fig` and `scf` instead.
func cmdReport(args []string, stdout, stderr io.Writer) int {
	e := newEdge("report", stderr)
	if _, ok := e.start(args); !ok {
		return 2
	}
	defer e.stop()
	ctx, eng := e.ctx, e.eng

	var checks []check
	add := func(name, paper, measured string, pass bool) {
		checks = append(checks, check{name, paper, measured, pass})
	}

	// --- Fig 3 ---
	g := bench.Fig3(ctx, eng, []int{16, 128, 256}, 10)
	get, put := g.Column("get_us"), g.Column("put_us")
	add("Fig 3: get latency 16 B", "2.89 us",
		fmt.Sprintf("%.2f us", get[0]), get[0] > 2.7 && get[0] < 3.1)
	add("Fig 3: put latency 16 B", "2.7 us",
		fmt.Sprintf("%.2f us", put[0]), put[0] > 2.5 && put[0] < 2.9)
	add("Fig 3: dip at 256 B", "present",
		fmt.Sprintf("get(128)=%.2f > get(256)=%.2f", get[1], get[2]), get[1] > get[2])

	// --- Fig 4/6 ---
	g = bench.Fig4(ctx, eng, []int{1024, 2048, 4096, 1 << 20}, 16)
	bw := g.Column("put_MBs")
	peak := network.DefaultParams().PeakPayloadBandwidth()
	add("Fig 4: peak bandwidth", "1775 MB/s",
		fmt.Sprintf("%.0f MB/s", bw[3]), bw[3] > 1700 && bw[3] < 1800)
	add("Fig 6: N1/2", "2 KB",
		fmt.Sprintf("bw(2KB)=%.2fx peak", bw[1]/peak),
		bw[0]/peak < 0.5 && bw[2]/peak > 0.5)

	// --- Fig 7 (reduced: 256 ranks) ---
	g = bench.Fig7(ctx, eng, 256, 16, 3, 3)
	lat, hops := g.Column("latency_us"), g.Column("hops")
	perHop := hopSlope(hops, lat)
	add("Fig 7: per-hop RTT delta", "70 ns (35/hop/dir)",
		fmt.Sprintf("%.0f ns", perHop), perHop > 50 && perHop < 90)

	// --- Fig 8 ---
	g = bench.Fig8(ctx, eng, []int{1024, 1 << 20}, 1<<20)
	sg := g.Column("get_MBs")
	add("Fig 8: strided tracks contiguous", "curve of Fig 4 at l0",
		fmt.Sprintf("%.0f MB/s at 1KB chunks, %.0f at 1MB", sg[0], sg[1]),
		sg[0] < 700 && sg[1] > 1700)

	// --- Fig 9 ---
	dIdle := bench.Fig9Point(ctx, eng, 16, 16, false, false, 8)
	atIdle := bench.Fig9Point(ctx, eng, 16, 16, true, false, 8)
	dComp := bench.Fig9Point(ctx, eng, 16, 16, false, true, 8)
	atComp := bench.Fig9Point(ctx, eng, 16, 16, true, true, 8)
	add("Fig 9: D ~ AT when idle", "comparable",
		fmt.Sprintf("%.1f vs %.1f us", dIdle, atIdle), dIdle < 4*atIdle)
	add("Fig 9: D collapses under compute", ">= t_compute/2",
		fmt.Sprintf("%.0f us", dComp), dComp > 150)
	add("Fig 9: AT immune to compute", "~AT idle",
		fmt.Sprintf("%.1f us", atComp), atComp < 2*atIdle+5)

	// --- Fig 11 (reduced: 32 ranks) ---
	scfg := nwchem.Config{Mol: nwchem.NewMolecule([]int{8, 6, 6, 8, 6, 6}),
		Iterations: 2, FlopRate: 2e7}
	d := bench.SCFPoint(ctx, eng, 32, 16, false, scfg)
	at := bench.SCFPoint(ctx, eng, 32, 16, true, scfg)
	red := 100 * (1 - float64(at.WallTime)/float64(d.WallTime))
	add("Fig 11: AT reduces SCF time", "up to 30% @4096",
		fmt.Sprintf("%.0f%% @32 (counter %.1f -> %.1f ms)", red,
			sim.ToMillis(d.CounterWait), sim.ToMillis(at.CounterWait)),
		red > 5 && at.CounterWait < d.CounterWait)
	add("Fig 11: energies bit-identical", "n/a (correctness)",
		fmt.Sprintf("%v", d.Energy == at.Energy), d.Energy == at.Energy)

	// --- Eq 7/8 ---
	g = bench.EqValidation(ctx, eng, []int{16, 65536}, 8)
	ratio := g.Column("ratio")
	add("Eq 7/8: fallback pays extra o", "additive, amortizing",
		fmt.Sprintf("ratio %.2f @16B -> %.2f @64KB", ratio[0], ratio[1]),
		ratio[0] > 1.05 && ratio[1] < ratio[0])

	// --- ablations ---
	g = bench.AblationConsistency(ctx, eng, 30)
	fences := g.Column("fences")
	add("SIII.E: cs_mr kills false fences", "fences -> ~0",
		fmt.Sprintf("%.0f -> %.0f", fences[0], fences[1]), fences[1] < fences[0]/10)
	g = bench.AblationContexts(ctx, eng, 30)
	ctxLat := g.Column("main_get_us")
	add("SIII.D: 2 contexts isolate main thread", "faster with rho=2",
		fmt.Sprintf("%.1f -> %.1f us", ctxLat[0], ctxLat[1]), ctxLat[1] < ctxLat[0])
	g = bench.AblationHardwareAMO(ctx, eng, []int{8, 64}, 8)
	sw, hw := g.Column("AT_software_us"), g.Column("hw_amo_us")
	add("SIV.B.3: hardware AMOs flatten latency", "sublinear vs linear",
		fmt.Sprintf("sw %.0f->%.0f us, hw %.0f->%.0f us", sw[0], sw[1], hw[0], hw[1]),
		hw[1] < sw[1]/4)

	// --- render ---
	if e.interrupted() {
		// Interrupted sweeps leave zero-valued holes; the checks above
		// would report nonsense.
		return 130
	}
	fmt.Fprintln(stdout, "# Reproduction report (reduced scale)")
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "| Check | Paper | Measured | Verdict |")
	fmt.Fprintln(stdout, "|---|---|---|---|")
	failures := 0
	for _, c := range checks {
		verdict := "PASS"
		if !c.pass {
			verdict = "**FAIL**"
			failures++
		}
		fmt.Fprintf(stdout, "| %s | %s | %s | %s |\n", c.name, c.paper, c.measured, verdict)
	}
	fmt.Fprintf(stdout, "\n%d/%d checks passed\n", len(checks)-failures, len(checks))

	if code := e.finish(); code != 0 {
		return code
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// hopSlope extracts the per-hop latency delta (ns) by comparing the min
// and max hop-distance groups.
func hopSlope(hops, lat []float64) float64 {
	type acc struct {
		sum float64
		n   int
	}
	groups := map[float64]*acc{}
	for i := range hops {
		g, ok := groups[hops[i]]
		if !ok {
			g = &acc{}
			groups[hops[i]] = g
		}
		g.sum += lat[i]
		g.n++
	}
	minH, maxH := 1e9, -1e9
	for h := range groups {
		if h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
	}
	if maxH <= minH {
		return 0
	}
	mMin := groups[minH].sum / float64(groups[minH].n)
	mMax := groups[maxH].sum / float64(groups[maxH].n)
	return (mMax - mMin) / (maxH - minH) * 1000
}
