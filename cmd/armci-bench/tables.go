package main

import (
	"io"

	"repro/internal/bench"
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
	bench.Partitions(stdout)
	return 0
}
