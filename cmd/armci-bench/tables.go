package main

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/topology"
)

// cmdTables regenerates Table II (the empirical PAMI time/space
// attribute values) and prints the partition geometry used by each
// experiment scale (the Eq 10 factorization).
func cmdTables(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("tables", stderr)
	csv := fs.Bool("csv", false, "emit CSV")
	if _, ok := parseArgs(fs, args); !ok {
		return 2
	}

	render(stdout, bench.TableII(), *csv, false)
	fmt.Fprintln(stdout, "== partition factorizations (ABCDE x T) ==")
	for _, p := range []int{2, 64, 256, 1024, 2048, 4096} {
		tor := topology.ForProcs(p, 16)
		fmt.Fprintf(stdout, "%5d procs: %v  (max %d hops)\n", p, tor, tor.MaxHops())
	}
	return 0
}
