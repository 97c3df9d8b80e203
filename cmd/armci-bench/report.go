package main

import (
	"io"

	"repro/internal/bench"
)

// cmdReport is the reproduction's verdict: every claim of bench.Claims
// judged on the paper-scale run set (about half a minute on two cores),
// as a markdown table. It exits 1 when a claim fails; a marked deviation
// that stays outside its band is not a failure.
func cmdReport(args []string, stdout, stderr io.Writer) int {
	return report(bench.Paper, args, stdout, stderr)
}

// report is cmdReport on the run set at scale s.
func report(s bench.Scale, args []string, stdout, stderr io.Writer) int {
	e := newEdge("report", stderr)
	if _, ok := e.start(args); !ok {
		return 2
	}
	defer e.stop()

	runs := bench.NewRunSet(e.ctx, e.eng, s)
	for _, name := range bench.RunNames {
		if runs.Grid(name); e.interrupted() {
			return 130 // partial grids are never judged
		}
	}
	failed := bench.WriteReport(stdout, runs)
	if code := e.finish(); code != 0 {
		return code
	}
	if failed > 0 {
		return 1
	}
	return 0
}
