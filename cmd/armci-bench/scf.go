package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/nwchem"
)

// cmdSCF regenerates Fig 11: the NWChem Self Consistent Field proxy
// (6 water molecules, 644 basis functions) with Default versus
// Asynchronous-Thread progress across process counts.
//
//	armci-bench scf                      # paper scale: 1024, 2048, 4096 processes
//	armci-bench scf -quick               # 64/128/256 processes, fewer iterations
//	armci-bench scf -procs 512 -iters 2  # custom single point
func cmdSCF(args []string, stdout, stderr io.Writer) int {
	e := newEdge("scf", stderr)
	quick := e.fs.Bool("quick", false, "reduced scale for fast runs")
	procs := e.fs.String("procs", "", "comma-separated process counts (overrides defaults)")
	iters := e.fs.Int("iters", 0, "SCF iterations (default 4, quick 2)")
	csv := e.fs.Bool("csv", false, "emit CSV")
	if _, ok := e.start(args); !ok {
		return 2
	}
	defer e.stop()

	counts := []int{1024, 2048, 4096}
	cfg := nwchem.DefaultConfig()
	if *quick {
		counts = []int{64, 128, 256}
		cfg.Iterations = 2
	}
	if *iters > 0 {
		cfg.Iterations = *iters
	}
	if *procs != "" {
		counts = counts[:0]
		for _, s := range strings.Split(*procs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 2 {
				fmt.Fprintf(stderr, "armci-bench scf: bad -procs entry %q\n", s)
				return 2
			}
			counts = append(counts, v)
		}
	}

	g := bench.Fig11(e.ctx, e.eng, counts, 16, cfg)
	if e.interrupted() {
		return 130
	}
	render(stdout, g, *csv, false)
	return e.finish()
}
