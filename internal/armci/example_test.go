package armci_test

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/sim"
)

// ExampleRun boots a 4-process partition with asynchronous progress
// threads, takes tickets from a shared counter, and verifies the total.
func ExampleRun() {
	total := int64(0)
	cfg := armci.Config{Procs: 4, ProcsPerNode: 16, AsyncThread: true}
	w, err := armci.Run(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		counter := rt.Malloc(th, 8) // collective: one slot per rank
		rt.FetchAdd(th, counter.At(0), 1)
		rt.Barrier(th)
		if rt.Rank == 0 {
			total = rt.Space().GetInt64(counter.At(0).Addr)
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("tickets issued: %d on %d ranks\n", total, len(w.Runtimes))
	// Output: tickets issued: 4 on 4 ranks
}
