// Distributed matrix multiply C = A x B over Global Arrays — the
// paper's §III.E motivating workload, expressed as a composition spec.
// Each task overlaps non-blocking gets of A and B tiles with
// accumulates into C; because A/B are read-only and C is write-only,
// per-region (cs_mr) conflict tracking should never fence, while the
// naive per-target scheme (cs_tgt) fences constantly. The product is
// verified against a serial reference (small integer values, so the
// comparison is exact).
//
// The multiply itself lives in the pattern registry (internal/bench,
// pattern "dgemm"); this driver is a thin client of the scenario DSL —
// the same spec runs byte-identically here, under `armci-bench
// compose`, and through a simd server's POST /v1/compose.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// spec mirrors the original standalone example: a 48x48 multiply in
// 12x12 tiles on 4 ranks, run under both consistency schemes.
const spec = `{
  "phases": [
    {
      "pattern": "dgemm",
      "params": {"n": 48, "tile": 12},
      "topology": {"procs": [4], "per_node": 4},
      "engine": {"consistency": "both"}
    }
  ]
}`

func main() {
	csv := flag.Bool("csv", false, "emit machine-readable CSV instead of the text table")
	show := flag.Bool("spec", false, "print the composition spec and exit")
	flag.Parse()
	if *show {
		fmt.Println(spec)
		return
	}
	sp, err := scenario.Parse(strings.NewReader(spec))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgemm:", err)
		os.Exit(1)
	}
	res, err := scenario.Run(context.Background(), sweep.NewSharded(0, 0, nil), sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgemm:", err)
		os.Exit(1)
	}
	format := "text"
	if *csv {
		format = "csv"
	}
	if err := res.Render(os.Stdout, format); err != nil {
		fmt.Fprintln(os.Stderr, "dgemm:", err)
		os.Exit(1)
	}
}
