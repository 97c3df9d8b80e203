package nwchem

import (
	"math"

	"repro/internal/armci"
	"repro/internal/ga"
	"repro/internal/sim"
)

// Config parameterizes an SCF run.
type Config struct {
	// Mol is the block structure (default: 6 waters, 644 basis functions).
	Mol *Molecule
	// Iterations is the number of SCF cycles (the paper's runs converge
	// the same input; we fix the cycle count so configurations are
	// directly comparable).
	Iterations int
	// FlopRate is the effective per-core rate in flops per virtual
	// second; it converts task flops into do-work time.
	FlopRate float64
	// IntegralFlops is the arithmetic cost of evaluating one two-electron
	// integral (contraction, primitives, screening); a task over atom
	// blocks (i,j,k,l) costs bfi*bfj*bfk*bfl*IntegralFlops flops.
	IntegralFlops float64
}

// DefaultConfig is the paper's workload.
func DefaultConfig() Config {
	return Config{Mol: Waters(6), Iterations: 4, FlopRate: 3e9, IntegralFlops: 40}
}

func (c Config) withDefaults() Config {
	if c.Mol == nil {
		c.Mol = Waters(6)
	}
	if c.Iterations == 0 {
		c.Iterations = 4
	}
	if c.FlopRate == 0 {
		c.FlopRate = 3e9
	}
	if c.IntegralFlops == 0 {
		c.IntegralFlops = 1
	}
	return c
}

// RankStats is one rank's time breakdown of the SCF loop.
type RankStats struct {
	CounterWait sim.Time // fetch-and-add on the shared counter (nxtask)
	GetWait     sim.Time // density patch gets
	Compute     sim.Time // do-work
	AccWait     sim.Time // Fock accumulates
	Other       sim.Time // sync, density update, energy
	Tasks       int
}

// Total returns the rank's wall time accounted across buckets.
func (s RankStats) Total() sim.Time {
	return s.CounterWait + s.GetWait + s.Compute + s.AccWait + s.Other
}

// Result aggregates an SCF experiment.
type Result struct {
	Procs       int
	AsyncThread bool
	WallTime    sim.Time
	Energy      float64
	Tasks       int
	NBF         int
	// Mean per-rank buckets.
	CounterWait, GetWait, Compute, AccWait, Other sim.Time
	// MaxCounterWait is the worst rank's counter time — load-balance
	// stalls concentrate there.
	MaxCounterWait sim.Time
}

// scfShared is cross-rank state of one experiment (plain host memory:
// reductions and result collection, zero virtual cost). Every slice is
// rank-indexed and written only by its owner, so rank threads running on
// parallel lanes (Config.Shards > 1) never touch a shared element; the
// folds happen after the world has joined.
type scfShared struct {
	cfg      Config
	stats    []RankStats
	energies []float64
	walls    []sim.Time
}

// RunSCF executes the SCF proxy on an existing ARMCI world body. It is
// exported for embedding in other harnesses; Experiment is the
// ready-made entry point.
func (sh *scfShared) run(th *sim.Thread, rt *armci.Runtime) {
	cfg := sh.cfg
	mol := cfg.Mol
	nbf := mol.NBF
	st := &sh.stats[rt.Rank]
	start := th.Now()

	density := ga.Create(th, rt, "density", nbf, nbf)
	fock := ga.Create(th, rt, "fock", nbf, nbf)
	counter := ga.NewCounter(th, rt)

	// Initial density: deterministic small integers (exact in FP).
	sh.initDensity(th, rt, density)
	density.Sync(th)

	ntasks := mol.Tasks()
	// The rank's one Fock patch buffer: AccAsync copies it out at issue,
	// so each task refills it in place.
	var patch []float64
	for iter := 0; iter < cfg.Iterations; iter++ {
		fock.Fill(th, 0)
		fock.Sync(th)
		counter.Reset(th)

		// Fock build (Fig 10): claim tasks off the shared counter.
		for {
			t0 := th.Now()
			t := counter.Next(th)
			st.CounterWait += th.Now() - t0
			if t >= int64(ntasks) {
				break
			}
			st.Tasks++
			i, j, k, l := mol.Task(int(t))

			// get: the ket density patch D(k,l).
			kr0, kr1 := mol.BlockBounds(k)
			kc0, kc1 := mol.BlockBounds(l)
			t0 = th.Now()
			dkl := density.Get(th, kr0, kc0, kr1, kc1)
			st.GetWait += th.Now() - t0

			// do work: contract with the synthetic integrals.
			t0 = th.Now()
			th.Sleep(sim.Time(mol.TaskFlops(int(t)) * cfg.IntegralFlops / cfg.FlopRate * 1e9))
			var s float64
			for _, v := range dkl {
				s += v
			}
			s = math.Mod(s, 257) // keep the dyadic sums bounded
			g := integral(i, j, k, l)
			ir0, ir1 := mol.BlockBounds(i)
			ic0, ic1 := mol.BlockBounds(j)
			if n := (ir1 - ir0) * (ic1 - ic0); cap(patch) < n {
				patch = make([]float64, n)
			} else {
				patch = patch[:n]
			}
			for idx := range patch {
				patch[idx] = s * g
			}
			st.Compute += th.Now() - t0

			// accumulate the bra Fock patch F(i,j) += patch, without
			// stalling on the owner: the fock.Sync at iteration end
			// completes it (NWChem's non-blocking accumulate pattern).
			t0 = th.Now()
			fock.AccAsync(th, ir0, ic0, ir1, ic1, patch, 1.0)
			st.AccWait += th.Now() - t0
		}

		t0 := th.Now()
		fock.Sync(th)
		// Energy: E = sum(F .* D) over owned elements, combined with the
		// collective reduction (GA_Dgop over the combining network).
		sh.energies[rt.Rank] = rt.AllReduceSum(th, sh.localEnergy(rt, density, fock))
		// Density update: D := (D + (F mod 64)) / 2 on owned blocks —
		// exact dyadic arithmetic, so all configurations agree bitwise.
		sh.updateDensity(rt, density, fock)
		density.Sync(th)
		st.Other += th.Now() - t0
	}

	rt.Barrier(th)
	sh.walls[rt.Rank] = th.Now() - start
}

// initDensity writes each rank's own block with deterministic integers.
func (sh *scfShared) initDensity(th *sim.Thread, rt *armci.Runtime, d *ga.Array) {
	r0, c0, r1, c1, ok := d.OwnBlock()
	if !ok {
		return
	}
	vals := make([]float64, (r1-r0)*(c1-c0))
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			vals[(r-r0)*(c1-c0)+(c-c0)] = float64((r*31 + c*17) % 64)
		}
	}
	d.Put(th, r0, c0, r1, c1, vals)
}

// localEnergy folds the owned blocks of F and D (both share the same
// distribution, so this is pure local memory traffic).
func (sh *scfShared) localEnergy(rt *armci.Runtime, d, f *ga.Array) float64 {
	dv, ok := d.OwnData()
	if !ok {
		return 0
	}
	fv, _ := f.OwnData()
	e := 0.0
	for i := range dv {
		e += float64(dv[i] * fv[i])
	}
	return e
}

func (sh *scfShared) updateDensity(rt *armci.Runtime, d, f *ga.Array) {
	dv, ok := d.OwnData()
	if !ok {
		return
	}
	fv, _ := f.OwnData()
	for i := range dv {
		dv[i] = (dv[i] + math.Mod(fv[i], 64)) / 2
	}
	d.SetOwnData(dv)
}

// Experiment runs the SCF proxy on a fresh world and aggregates results.
func Experiment(acfg armci.Config, scfg Config) Result {
	scfg = scfg.withDefaults()
	sh := &scfShared{
		cfg:      scfg,
		stats:    make([]RankStats, acfg.Procs),
		energies: make([]float64, acfg.Procs),
		walls:    make([]sim.Time, acfg.Procs),
	}
	armci.MustRun(acfg, func(th *sim.Thread, rt *armci.Runtime) {
		sh.run(th, rt)
	})

	var wall sim.Time
	for _, w := range sh.walls {
		if w > wall {
			wall = w
		}
	}
	res := Result{
		Procs:       acfg.Procs,
		AsyncThread: acfg.AsyncThread,
		WallTime:    wall,
		// AllReduceSum hands every rank the identical deterministic total.
		Energy: sh.energies[0],
		NBF:    scfg.Mol.NBF,
	}
	n := sim.Time(acfg.Procs)
	for _, st := range sh.stats {
		res.Tasks += st.Tasks
		res.CounterWait += st.CounterWait
		res.GetWait += st.GetWait
		res.Compute += st.Compute
		res.AccWait += st.AccWait
		res.Other += st.Other
		if st.CounterWait > res.MaxCounterWait {
			res.MaxCounterWait = st.CounterWait
		}
	}
	res.CounterWait /= n
	res.GetWait /= n
	res.Compute /= n
	res.AccWait /= n
	res.Other /= n
	return res
}
