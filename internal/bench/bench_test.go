package bench

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// The tests run one at a time on one engine, the way a driver does.
var (
	bg  = context.Background()
	eng = sweep.NewSharded(0, 0, nil)
)

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
