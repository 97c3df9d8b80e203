// Dynamic load balancing with a shared counter — the NWChem pattern of
// §III.D/§IV.B.3, expressed as a composition spec. A pool of unequal
// tasks is handed out by fetch-and-add on a rank-0 counter; the run
// compares Default and Asynchronous-Thread progress on wall time,
// counter-wait share, and load balance.
//
// The task pool itself lives in the pattern registry (internal/bench,
// pattern "worksteal"); this driver is a thin client of the scenario
// DSL — the same spec runs byte-identically here, under `armci-bench
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

// spec mirrors the original standalone example: 256 skewed tasks over
// 16 ranks, run under both progress modes.
const spec = `{
  "phases": [
    {
      "pattern": "worksteal",
      "params": {"tasks": 256},
      "topology": {"procs": [16], "per_node": 16},
      "engine": {"mode": "both"}
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
		fmt.Fprintln(os.Stderr, "worksteal:", err)
		os.Exit(1)
	}
	res, err := scenario.Run(context.Background(), sweep.NewSharded(0, 0, nil), sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "worksteal:", err)
		os.Exit(1)
	}
	format := "text"
	if *csv {
		format = "csv"
	}
	if err := res.Render(os.Stdout, format); err != nil {
		fmt.Fprintln(os.Stderr, "worksteal:", err)
		os.Exit(1)
	}
}
