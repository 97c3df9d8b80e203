package repro

import (
	"testing"

	"repro/internal/armci"
	"repro/internal/ga"
	"repro/internal/mem"
	"repro/internal/nwchem"
	"repro/internal/sim"
)

// Medium-scale integration tests crossing every layer. The larger ones
// are skipped under -short.

func TestIntegrationAllToAllPuts(t *testing.T) {
	const procs = 64
	w, err := armci.Run(armci.Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true}, func(th *sim.Thread, rt *armci.Runtime) {
		a := rt.Malloc(th, procs*8)
		local := rt.LocalAlloc(th, 8)
		// Everyone writes its rank into slot[rank] of every peer.
		rt.Space().SetInt64(local, int64(rt.Rank))
		for r := 0; r < procs; r++ {
			rt.Put(th, local, a.At(r).Add(rt.Rank*8), 8)
		}
		rt.AllFence(th)
		rt.Barrier(th)
		// Validate our own slot vector.
		for r := 0; r < procs; r++ {
			got := rt.Space().GetInt64(a.At(rt.Rank).Addr + mem.Addr(r*8))
			if got != int64(r) {
				t.Errorf("rank %d slot %d = %d", rt.Rank, r, got)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := w.AggregateStats()
	if agg.Get("put.rdma") != procs*procs {
		t.Fatalf("put.rdma = %d, want %d", agg.Get("put.rdma"), procs*procs)
	}
}

func TestIntegrationCounterAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const procs = 512
	total := int64(0)
	_, err := armci.Run(armci.Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true}, func(th *sim.Thread, rt *armci.Runtime) {
		c := ga.NewCounter(th, rt)
		mine := int64(0)
		for {
			v := c.Next(th)
			if v >= 4096 {
				break
			}
			mine++
		}
		rt.Barrier(th)
		total += mine // serialized by the simulation
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 4096 {
		t.Fatalf("tickets claimed = %d, want 4096", total)
	}
}

func TestIntegrationSCFEnergyInvariantAcrossScales(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	scfg := nwchem.Config{Mol: nwchem.Waters(1), Iterations: 2,
		FlopRate: 1e9, IntegralFlops: 1}
	var base float64
	for i, procs := range []int{4, 16, 64} {
		res := nwchem.Experiment(armci.Config{Procs: procs, ProcsPerNode: 16,
			AsyncThread: true}, scfg)
		if i == 0 {
			base = res.Energy
			continue
		}
		if res.Energy != base {
			t.Fatalf("energy at p=%d (%v) differs from p=4 (%v)", procs, res.Energy, base)
		}
	}
}

func TestIntegrationDeterministicSCF(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	scfg := nwchem.Config{Mol: nwchem.NewMolecule([]int{8, 6, 6}),
		Iterations: 2, FlopRate: 1e9}
	a := nwchem.Experiment(armci.Config{Procs: 32, ProcsPerNode: 16, AsyncThread: true}, scfg)
	b := nwchem.Experiment(armci.Config{Procs: 32, ProcsPerNode: 16, AsyncThread: true}, scfg)
	if a.WallTime != b.WallTime || a.Energy != b.Energy {
		t.Fatalf("SCF not deterministic: %v/%v, %v/%v",
			a.WallTime, b.WallTime, a.Energy, b.Energy)
	}
}
