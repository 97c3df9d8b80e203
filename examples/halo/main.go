// Halo exchange, expressed as a composition spec: a 2-D Jacobi stencil
// where each rank owns a tile of the global grid and, every iteration,
// writes its boundary rows/columns into its neighbors' ghost regions
// with one-sided strided puts. Row halos are contiguous (RDMA fast
// path); column halos are strided with an 8-byte chunk (the tall-skinny
// typed path), so the run exercises both §III.C protocols.
//
// The stencil itself lives in the pattern registry (internal/bench,
// pattern "halo"); this driver is a thin client of the scenario DSL —
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

// spec mirrors the original standalone example: a 4x2 process grid of
// 32-cell tiles, 20 Jacobi iterations, asynchronous-thread progress.
const spec = `{
  "phases": [
    {
      "pattern": "halo",
      "params": {"tiles_x": 4, "tiles_y": 2, "tile_n": 32, "iters": 20},
      "topology": {"per_node": 16},
      "engine": {"mode": "async"}
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
		fmt.Fprintln(os.Stderr, "halo:", err)
		os.Exit(1)
	}
	res, err := scenario.Run(context.Background(), sweep.NewSharded(0, 0, nil), sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "halo:", err)
		os.Exit(1)
	}
	format := "text"
	if *csv {
		format = "csv"
	}
	if err := res.Render(os.Stdout, format); err != nil {
		fmt.Fprintln(os.Stderr, "halo:", err)
		os.Exit(1)
	}
}
