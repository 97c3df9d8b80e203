// Quickstart: boot a simulated 8-process Blue Gene/Q partition, allocate
// a shared block on every rank, and exercise the ARMCI basics — put, get,
// fence, and a fetch-and-add counter — printing what happened.
package main

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/sim"
)

func main() {
	const procs = 8
	cfg := armci.Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true}
	w := armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		// Collective allocation: one 4 KB block per rank.
		a := rt.Malloc(th, 4096)
		counter := rt.Malloc(th, 8)

		// Each rank writes a greeting into its right neighbor's block.
		right := (rt.Rank + 1) % procs
		msg := fmt.Sprintf("hello from rank %d", rt.Rank)
		local := rt.LocalAlloc(th, 256)
		rt.Space().CopyIn(local, []byte(msg))
		rt.Put(th, local, a.At(right), len(msg))
		rt.Fence(th, right) // make it remotely visible
		rt.Barrier(th)

		// Read the greeting our left neighbor left for us.
		back := rt.LocalAlloc(th, 256)
		rt.Get(th, a.At(rt.Rank), back, 256)
		buf := make([]byte, 64)
		rt.Space().CopyOut(back, buf)
		n := 0
		for n < len(buf) && buf[n] != 0 {
			n++
		}

		// Everyone takes a ticket from a shared counter on rank 0.
		ticket := rt.FetchAdd(th, counter.At(0), 1)
		rt.Barrier(th)

		fmt.Printf("rank %d @ %6.2fus: got %q, ticket %d\n",
			rt.Rank, float64(th.Now())/1000, string(buf[:n]), ticket)
	})

	fmt.Printf("\nsimulated partition: %v\n", w.M.Net.Torus())
	traffic := w.M.Net.Totals()
	fmt.Printf("network traffic: %d messages, %d payload bytes\n",
		traffic.Messages, traffic.Bytes)
	st := w.Runtimes[0].Stats
	fmt.Printf("rank 0 protocol counters: put.rdma=%d get.rdma=%d rmw=%d fence=%d\n",
		st.Get("put.rdma"), st.Get("get.rdma"), st.Get("rmw"), st.Get("fence"))
}
