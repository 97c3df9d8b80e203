package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// cmdSCF regenerates Fig 11: the NWChem Self Consistent Field proxy
// (6 water molecules, 644 basis functions) with Default versus
// Asynchronous-Thread progress across process counts — the run set's
// Fig 11, unless -procs or -iters override it.
//
//	armci-bench scf                      # paper scale: 1024, 2048, 4096 processes, one cycle
//	armci-bench scf -quick               # 16/32 processes, 2 waters
//	armci-bench scf -procs 512 -iters 2  # custom single point
func cmdSCF(args []string, stdout, stderr io.Writer) int {
	e := newEdge("scf", stderr)
	quick := e.fs.Bool("quick", false, "reduced scale for fast runs")
	procs := e.fs.String("procs", "", "comma-separated process counts (overrides the scale's)")
	iters := e.fs.Int("iters", 0, "SCF iterations (default: the scale's, 1)")
	csv := e.fs.Bool("csv", false, "emit CSV")
	if _, ok := e.start(args); !ok {
		return 2
	}
	defer e.stop()

	s := scale(*quick)
	if *iters > 0 {
		s.SCF.Iterations = *iters
	}
	if *procs != "" {
		s.SCFProcs = nil
		for _, f := range strings.Split(*procs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 2 {
				fmt.Fprintf(stderr, "armci-bench scf: bad -procs entry %q\n", f)
				return 2
			}
			s.SCFProcs = append(s.SCFProcs, v)
		}
	}

	g := bench.NewRunSet(e.ctx, e.eng, s).Grid("11")
	if e.interrupted() {
		return 130
	}
	render(stdout, g, *csv, false)
	return e.finish()
}
