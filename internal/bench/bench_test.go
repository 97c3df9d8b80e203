package bench

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/nwchem"
	"repro/internal/sweep"
)

// The tests run one at a time on one engine, the way a driver does.
var (
	bg  = context.Background()
	eng = sweep.NewSharded(0, 0, nil)
)

func TestFig3ShapeMatchesPaper(t *testing.T) {
	sizes := []int{16, 64, 240, 256, 1024, 65536}
	g := Fig3(bg, eng, sizes, 5)
	get := g.Column("get_us")
	put := g.Column("put_us")

	if get[0] < 2.7 || get[0] > 3.1 {
		t.Fatalf("get(16B) = %.2fus, paper 2.89", get[0])
	}
	if put[0] < 2.5 || put[0] > 2.9 {
		t.Fatalf("put(16B) = %.2fus, paper 2.7", put[0])
	}
	// The 256-byte dip: an unaligned 240 B transfer is no faster than the
	// aligned 256 B one despite being smaller.
	if get[2] < get[3] {
		t.Fatalf("no alignment dip: get(240B)=%.3f < get(256B)=%.3f", get[2], get[3])
	}
	// Monotone growth at scale.
	if get[5] <= get[4] || put[5] <= put[4] {
		t.Fatal("latency not increasing with size")
	}
}

func TestFig4BandwidthShape(t *testing.T) {
	sizes := []int{512, 2048, 16384, 262144, 1 << 20}
	g := Fig4(bg, eng, sizes, 16)
	put := g.Column("put_MBs")
	get := g.Column("get_MBs")
	peak := put[len(put)-1]
	if peak < 1700 || peak > 1800 {
		t.Fatalf("peak put bandwidth %.0f MB/s, paper 1775", peak)
	}
	// Get trails put at small sizes (round-trip overhead), converges large.
	if get[0] >= put[0] {
		t.Fatalf("get (%.0f) not below put (%.0f) at 512B", get[0], put[0])
	}
	gp := get[len(get)-1] / put[len(put)-1]
	if gp < 0.95 {
		t.Fatalf("get/put ratio at 1MB = %.2f, should converge", gp)
	}
}

func TestFig6EfficiencyShape(t *testing.T) {
	sizes := []int{512, 1024, 2048, 4096, 32768, 1 << 20}
	g := Fig6(bg, eng, sizes, 16)
	eff := g.Column("efficiency")
	// N1/2 near 2KB: below 50% at 1KB, above at 4KB.
	if eff[1] >= 0.5 {
		t.Fatalf("efficiency at 1KB = %.2f, want < 0.5", eff[1])
	}
	if eff[3] <= 0.5 {
		t.Fatalf("efficiency at 4KB = %.2f, want > 0.5", eff[3])
	}
	if eff[4] < 0.85 {
		t.Fatalf("efficiency at 32KB = %.2f, want >= 0.85", eff[4])
	}
	if eff[5] < 0.97 {
		t.Fatalf("efficiency at 1MB = %.2f", eff[5])
	}
}

func TestFig7HopGradient(t *testing.T) {
	// Scaled-down Fig 7: 128 procs, 8/node -> 16 nodes. The latency must
	// be an affine function of hop count at ~35ns/hop/direction.
	g := Fig7(bg, eng, 128, 8, 4, 1)
	hops := g.Column("hops")
	lat := g.Column("latency_us")
	// Group by hops, compare means of min and max hop groups.
	sum := map[float64][]float64{}
	for i := range hops {
		sum[hops[i]] = append(sum[hops[i]], lat[i])
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	var minH, maxH = 1e9, -1e9
	for h := range sum {
		if h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
	}
	if maxH == minH {
		t.Skip("degenerate partition")
	}
	perHop := (mean(sum[maxH]) - mean(sum[minH])) / (maxH - minH) * 1000 // ns
	// Two directions x 35 ns.
	if perHop < 50 || perHop > 90 {
		t.Fatalf("per-hop round-trip delta = %.0f ns, want ~70", perHop)
	}
	if m := mean(sum[minH]); m < 2.7 || m > 3.1 {
		t.Fatalf("nearest latency %.2f us, paper min 2.89", m)
	}
}

func TestFig8TracksContiguousCurve(t *testing.T) {
	g := Fig8(bg, eng, []int{1024, 8192, 65536, 1 << 20}, 1<<20)
	got := g.Column("get_MBs")
	// Strided bandwidth rises with l0 and approaches the contiguous peak.
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("strided get bw not increasing at l0=%v", g.Rows[i][0])
		}
	}
	if got[len(got)-1] < 1600 {
		t.Fatalf("1MB-chunk strided bw %.0f MB/s too low", got[len(got)-1])
	}
}

func TestFig9ShapeSmall(t *testing.T) {
	// 16 procs: D~AT when idle; D >> AT when rank 0 computes.
	dIdle := Fig9Point(bg, eng, 16, 16, false, false, 10)
	atIdle := Fig9Point(bg, eng, 16, 16, true, false, 10)
	dComp := Fig9Point(bg, eng, 16, 16, false, true, 10)
	atComp := Fig9Point(bg, eng, 16, 16, true, true, 10)
	if dIdle > 4*atIdle || atIdle > 4*dIdle {
		t.Fatalf("idle D (%.1f) and AT (%.1f) should be comparable", dIdle, atIdle)
	}
	if dComp < 50 {
		t.Fatalf("D under compute = %.1fus; expected ~t_compute/2 or worse", dComp)
	}
	if atComp > dComp/4 {
		t.Fatalf("AT under compute (%.1f) should crush D (%.1f)", atComp, dComp)
	}
	if atComp > 3*atIdle+5 {
		t.Fatalf("AT compute (%.1f) should be near AT idle (%.1f)", atComp, atIdle)
	}
}

func TestFig9LatencyGrowsWithP(t *testing.T) {
	small := Fig9Point(bg, eng, 4, 16, true, false, 8)
	large := Fig9Point(bg, eng, 32, 16, true, false, 8)
	if large <= small {
		t.Fatalf("AT latency should grow with p: %.1f @4 vs %.1f @32", small, large)
	}
}

func TestFig11SmallScale(t *testing.T) {
	// A low flop rate gives each task a few hundred microseconds of
	// compute, so the default mode's progress blackouts show up even at
	// this tiny scale.
	scfg := nwchem.Config{Mol: nwchem.NewMolecule([]int{8, 6, 6, 8, 6, 6}),
		Iterations: 2, FlopRate: 2e7}
	g := Fig11(bg, eng, []int{8}, 16, scfg)
	d := g.Column("D_ms")[0]
	at := g.Column("AT_ms")[0]
	if at*1.05 >= d {
		t.Fatalf("AT (%.2fms) not meaningfully faster than D (%.2fms)", at, d)
	}
	for _, n := range g.Notes {
		if strings.Contains(n, "WARNING") {
			t.Fatalf("energy mismatch: %s", n)
		}
	}
}

func TestTableIIMatchesPaper(t *testing.T) {
	g := TableII()
	find := func(attr string) string {
		for _, row := range g.Rows {
			if row[0] == attr {
				return row[2]
			}
		}
		t.Fatalf("missing attribute %q", attr)
		return ""
	}
	if v := find("endpoint space"); v != "4 B" {
		t.Fatalf("alpha = %s", v)
	}
	if v := find("memory region space"); v != "8 B" {
		t.Fatalf("gamma = %s", v)
	}
	if v := find("endpoint creation"); v != "0.30 us" {
		t.Fatalf("beta = %s", v)
	}
	if v := find("memory region creation"); v != "43.0 us" {
		t.Fatalf("delta = %s", v)
	}
}

func TestEqValidationFallbackDominated(t *testing.T) {
	g := EqValidation(bg, eng, []int{16, 1024, 65536}, 5)
	ratio := g.Column("ratio")
	for i, r := range ratio {
		if r <= 1.0 {
			t.Fatalf("row %d: fallback not slower (ratio %.2f)", i, r)
		}
	}
	// Eq 8's gap is an additive o: the ratio should shrink as m grows.
	if ratio[len(ratio)-1] >= ratio[0] {
		t.Fatalf("fallback penalty should amortize with size: %v", ratio)
	}
}

func TestAblationContexts(t *testing.T) {
	g := AblationContexts(bg, eng, 15)
	lat := g.Column("main_get_us")
	if lat[1] >= lat[0] {
		t.Fatalf("2 contexts (%.1fus) should beat 1 context (%.1fus)", lat[1], lat[0])
	}
}

func TestAblationConsistency(t *testing.T) {
	g := AblationConsistency(bg, eng, 20)
	fences := g.Column("fences")
	times := g.Column("time_ms")
	if fences[1] >= fences[0] {
		t.Fatalf("per-region fences (%v) should be below naive (%v)", fences[1], fences[0])
	}
	if times[1] >= times[0] {
		t.Fatalf("per-region time (%v) should be below naive (%v)", times[1], times[0])
	}
}

func TestGridRendering(t *testing.T) {
	g := &Grid{Title: "t", Header: []string{"a", "b"}}
	g.AddF(1, 1, 2)
	g.Note("note")
	var sb, csv strings.Builder
	g.Render(&sb)
	g.RenderCSV(&csv)
	if !strings.Contains(sb.String(), "== t ==") || !strings.Contains(sb.String(), "# note") {
		t.Fatal("bad text render")
	}
	if !strings.Contains(csv.String(), "a,b") {
		t.Fatal("bad csv render")
	}
	if got := g.Column("b"); len(got) != 1 || got[0] != 2 {
		t.Fatal("bad column extraction")
	}
}

func TestPowersOfTwo(t *testing.T) {
	got := PowersOfTwo(4, 6)
	if len(got) != 3 || got[0] != 16 || got[2] != 64 {
		t.Fatalf("got %v", got)
	}
}

func TestAblationHardwareAMO(t *testing.T) {
	g := AblationHardwareAMO(bg, eng, []int{16, 64}, 8)
	sw := g.Column("AT_software_us")
	hw := g.Column("hw_amo_us")
	for i := range sw {
		if hw[i] >= sw[i] {
			t.Fatalf("row %d: hardware AMO (%.1f) not faster than software (%.1f)", i, hw[i], sw[i])
		}
	}
	// Software latency grows ~linearly with p; the hardware path grows
	// far more slowly (only NIC serialization).
	swGrowth := sw[1] / sw[0]
	hwGrowth := hw[1] / hw[0]
	if hwGrowth >= swGrowth {
		t.Fatalf("hardware growth %.2fx should be below software growth %.2fx", hwGrowth, swGrowth)
	}
}

func TestAblationStridedProtocol(t *testing.T) {
	g := AblationStridedProtocol(bg, eng, []int{64, 4096, 65536}, 1<<18)
	chunks := g.Column("chunks_us")
	packed := g.Column("packed_us")
	// Tall-skinny (64 B chunks): pack/unpack wins (the reason the typed
	// path exists); wide chunks: the RDMA list wins or ties.
	if chunks[0] <= packed[0] {
		t.Fatalf("64B chunks: chunk list (%.0f) should lose to packing (%.0f)",
			chunks[0], packed[0])
	}
	if chunks[2] > packed[2] {
		t.Fatalf("64KB chunks: chunk list (%.0f) should not lose to packing (%.0f)",
			chunks[2], packed[2])
	}
}

func TestAblationRouting(t *testing.T) {
	g := AblationRouting(bg, eng, 16, 64)
	dor := g.Column("DOR_us")
	ada := g.Column("adaptive_us")
	for i := range dor {
		if ada[i] > dor[i] {
			t.Fatalf("row %d: adaptive (%.0f) worse than DOR (%.0f)", i, ada[i], dor[i])
		}
	}
	// At high flow counts the hotspot relief must be material.
	last := len(dor) - 1
	if ada[last] >= dor[last] {
		t.Fatalf("no relief at %d flows: %.0f vs %.0f", 16, ada[last], dor[last])
	}
}

func TestFig5LatencyPerByteShape(t *testing.T) {
	g := Fig5(bg, eng, []int{16, 4096, 65536}, 4)
	npb := g.Column("ns_per_byte")
	// Monotonically decreasing toward the wire cost (~0.56 ns/B).
	if !(npb[0] > npb[1] && npb[1] > npb[2]) {
		t.Fatalf("latency/byte not decreasing: %v", npb)
	}
	// Paper: ~1 ns/byte beyond 4 KB.
	if npb[1] > 1.5 {
		t.Fatalf("latency/byte at 4KB = %.2f, want ~1", npb[1])
	}
	if npb[2] < 0.5 || npb[2] > 0.8 {
		t.Fatalf("latency/byte at 64KB = %.2f, want ~0.6", npb[2])
	}
}

// TestFiguresAndPatternsShareKernels pins the kernel merge: a figure and
// the pattern grid over the same traffic shape run one rank body, so
// they agree cell for cell (titles and headers are the callers').
func TestFiguresAndPatternsShareKernels(t *testing.T) {
	column := func(g *Grid, name string) []string {
		t.Helper()
		for i, h := range g.Header {
			if h == name {
				col := make([]string, len(g.Rows))
				for r, row := range g.Rows {
					col[r] = row[i]
				}
				return col
			}
		}
		t.Fatalf("%s: no column %s in %v", g.Title, name, g.Header)
		return nil
	}
	sizes, procs := []int{16, 256, 4096}, []int{2, 16}
	fig3 := Fig3(bg, eng, sizes, 3)
	ping := PingGrid(bg, eng, PingSpec{Sizes: sizes, Iters: 3, Modes: []bool{true}})
	fig9 := Fig9(bg, eng, procs, 4)
	fetchAdd := func(perNode int, compute bool, modes ...bool) *Grid {
		return FetchAddGrid(bg, eng, FetchAddSpec{Procs: procs, PerNode: perNode, OpsEach: 4,
			Compute: compute, Modes: modes})
	}
	idle, busy := fetchAdd(16, false, false, true), fetchAdd(16, true, false, true)
	amo := AblationHardwareAMO(bg, eng, procs, 4)

	for _, tc := range []struct {
		fig    *Grid
		figCol string
		pat    *Grid
		patCol string
	}{
		{fig3, "get_us", ping, "AT_get_us"},
		{fig3, "put_us", ping, "AT_put_us"},
		{fig9, "D_idle_us", idle, "D_us"},
		{fig9, "AT_idle_us", idle, "AT_us"},
		{fig9, "D_compute_us", busy, "D_us"},
		{fig9, "AT_compute_us", busy, "AT_us"},
		{amo, "AT_software_us", fetchAdd(1, true, true), "AT_us"},
	} {
		got, want := column(tc.pat, tc.patCol), column(tc.fig, tc.figCol)
		if len(want) == 0 || strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s %s = %v, but %s %s = %v", tc.fig.Title, tc.figCol, want, tc.pat.Title, tc.patCol, got)
		}
	}
}

// Resolve reads numbers in both decoded forms. A json.Number is the
// literal: all 64 bits of a seed survive, and only an integer spelling
// is an integer. A float64 is accepted while it still names one integer.
func TestResolveNumberForms(t *testing.T) {
	s := Schema{IntParam("iters", "", 5, 1, 100), UintParam("seed", "", 42)}
	for _, tc := range []struct {
		param string
		raw   any
		want  any // nil: rejected
	}{
		{"seed", json.Number("18446744073709551615"), uint64(math.MaxUint64)},
		{"seed", json.Number("9007199254740993"), uint64(1<<53 + 1)},
		{"seed", json.Number("0"), uint64(42)},
		{"seed", json.Number("18446744073709551616"), nil},
		{"seed", json.Number("7.0"), nil},
		{"seed", json.Number("-1"), nil},
		{"seed", float64(7), uint64(7)},
		{"seed", float64(1 << 53), nil},
		{"seed", float64(-1), nil},
		{"iters", json.Number("6"), 6},
		{"iters", json.Number("-0"), 5},
		{"iters", json.Number("6.0"), nil},
		{"iters", json.Number("1e1"), nil},
		{"iters", float64(6), 6},
		{"iters", 6.5, nil},
	} {
		got, err := s.Resolve(Values{tc.param: tc.raw})
		var pe *ParamError
		switch {
		case tc.want == nil && (!errors.As(err, &pe) || pe.Param != tc.param):
			t.Errorf("%s=%v (%T): want a ParamError naming it, got %v %v", tc.param, tc.raw, tc.raw, got, err)
		case tc.want != nil && (err != nil || got[tc.param] != tc.want):
			t.Errorf("%s=%v (%T): want %v, got %v %v", tc.param, tc.raw, tc.raw, tc.want, got[tc.param], err)
		}
	}
}
