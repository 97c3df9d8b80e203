package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/network"
	"repro/internal/topology"
)

// cmdTorus explores the simulated 5-D torus: partition factorization
// for a process count, hop-distance histograms (the shape behind Fig 7's
// oscillation), and dimension-order routes between ranks.
//
//	armci-bench torus -procs 2048            # partition + hop histogram from rank 0
//	armci-bench torus -procs 2048 -route 37  # also print the route from rank 0 to 37
func cmdTorus(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("torus", stderr)
	procs := fs.Int("procs", 2048, "number of processes")
	perNode := fs.Int("c", 16, "processes per node")
	route := fs.Int("route", -1, "print the route from rank 0 to this rank")
	if _, ok := parseArgs(fs, args); !ok {
		return 2
	}
	if *procs < 1 || *perNode < 1 {
		fmt.Fprintln(stderr, "armci-bench torus: -procs and -c must be positive")
		return 2
	}

	tor := topology.ForProcs(*procs, *perNode)
	fmt.Fprintf(stdout, "partition: %v\n", tor)
	fmt.Fprintf(stdout, "dimensions ABCDE: %v, diameter %d hops\n", tor.Dims, tor.MaxHops())

	// Hop histogram from node 0 (what rank 0 sees in Fig 7).
	hist := make([]int, tor.MaxHops()+1)
	for n := 0; n < tor.Nodes(); n++ {
		hist[tor.Hops(0, n)]++
	}
	p := network.DefaultParams()
	// A 16 B get to an adjacent node, the sum Params' doc comment spells out.
	base := p.CPUInject + 2*(p.NicMsgOverhead+p.RouterFixed+p.HopLatency) + p.SerTime(32) + p.SerTime(16) +
		p.MUTurnaround + p.UnalignedPenalty + p.CompletionOverhead
	fmt.Fprintln(stdout, "\nhops  nodes  est. get latency (16B)")
	for h, count := range hist {
		if count == 0 {
			continue
		}
		eff := h
		if eff == 0 {
			eff = 1
		}
		lat := int(base) + (eff-1)*2*int(p.HopLatency) // adjacent get + per-hop RTT
		fmt.Fprintf(stdout, "%4d  %5d  %.2f us  %s\n", h, count, float64(lat)/1000,
			strings.Repeat("#", count*40/tor.Nodes()+1))
	}

	if *route >= 0 && *route < tor.Procs() {
		n1, n2 := tor.NodeOf(0), tor.NodeOf(*route)
		fmt.Fprintf(stdout, "\nroute rank 0 (node %d %v) -> rank %d (node %d %v):\n",
			n1, tor.CoordOf(n1), *route, n2, tor.CoordOf(n2))
		links := tor.Route(n1, n2)
		if len(links) == 0 {
			fmt.Fprintln(stdout, "  same node (MU loopback)")
		}
		for i, l := range links {
			dir := "-"
			if l.Plus {
				dir = "+"
			}
			fmt.Fprintf(stdout, "  hop %d: node %d %v, dim %s%s\n",
				i+1, l.From, tor.CoordOf(l.From), topology.DimNames[l.Dim], dir)
		}
	}
	return 0
}
