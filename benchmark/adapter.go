package main

// adapter.go is the only file of the benchmark that imports
// repro/internal/...: everything else reaches the stack through the
// aliases and one-line constructors below. The surface is the one the
// ROADMAP keeps (scenario Parse/Canon/Run/Render, sweep NewSharded/Map,
// armci.Run + Runtime ops, the sim kernel, network Send on a torus, ga,
// nwchem.Experiment, serve's server/cache/store, cluster's ring/filler,
// an obs snapshot). Nothing slated for deletion is used — no
// bench.Fig9Point*, Shards: -1, SerialBoundary, LaneGroup, bench.Set*
// globals or unversioned routes — so a PR that deletes those leaves the
// benchmark compiling, and a PR that moves a kept entry point edits
// this one file.

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/armci"
	"repro/internal/cluster"
	"repro/internal/ga"
	"repro/internal/network"
	"repro/internal/nwchem"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// The types the rest of the benchmark names; everything else it meets
// only as a return value.
type (
	SpecResult  = scenario.Result
	Engine      = sweep.Engine
	SweepCtx    = sweep.Ctx
	ArmciConfig = armci.Config
	Runtime     = armci.Runtime
	GlobalPtr   = armci.GlobalPtr
	Thread      = sim.Thread
	SCFResult   = nwchem.Result
	Server      = serve.Server
	ServeOpts   = serve.Options
	Store       = serve.Store
	Registry    = obs.Registry
)

// Virtual-time units (sim.Time is int64 nanoseconds).
const (
	simMicrosecond = sim.Microsecond
	simMillisecond = sim.Millisecond
	float64Size    = 8 // mem.Float64Size
)

// --- scenario ---

func parseSpec(r io.Reader) (scenario.Spec, error)     { return scenario.Parse(r) }
func canonSpec(s scenario.Spec) (scenario.Spec, error) { return s.Canon() }
func runSpec(ctx context.Context, eng *Engine, s scenario.Spec) (*SpecResult, error) {
	return scenario.Run(ctx, eng, s)
}

// --- sweep ---

// newEngine builds a sweep engine with the given sweep workers and lane
// workers; reg (nil for none) receives every run's obs counters.
func newEngine(workers, shards int, reg *Registry) *Engine {
	return sweep.NewSharded(workers, shards, reg)
}

func sweepMap[T any](e *Engine, n int, fn func(c *SweepCtx, i int) T) []T {
	return sweep.Map(e, n, fn)
}

// --- armci / ga / nwchem ---

// armciRun runs body on every rank of a fresh world and returns the
// host error (deadlock, rank panic) if the simulation did not complete.
func armciRun(cfg ArmciConfig, body func(th *Thread, rt *Runtime)) error {
	_, err := armci.Run(cfg, body)
	return err
}

func gaCreate(th *Thread, rt *Runtime, name string, rows, cols int) *ga.Array {
	return ga.Create(th, rt, name, rows, cols)
}

func gaCounter(th *Thread, rt *Runtime) *ga.Counter { return ga.NewCounter(th, rt) }

func scfExperiment(acfg ArmciConfig, atomBF []int, iterations int, flopRate float64) SCFResult {
	return nwchem.Experiment(acfg, nwchem.Config{Mol: nwchem.NewMolecule(atomBF),
		Iterations: iterations, FlopRate: flopRate})
}

// --- sim / network / topology ---

func newKernel() *sim.Kernel { return sim.NewKernel() }

func newSimWaitGroup(k *sim.Kernel) *sim.WaitGroup { return sim.NewWaitGroup(k) }

// newTorusNetwork builds the calibrated BG/Q network over a torus of the
// given extents, one process per node.
func newTorusNetwork(k *sim.Kernel, dims [topology.NumDims]int) *network.Network {
	return network.New(k, topology.New(dims, 1), network.DefaultParams())
}

func sendData(nw *network.Network, src, dst, payload int, done func()) {
	nw.Send(src, dst, payload, network.Data, done)
}

// --- serve / cluster ---

func newServer(o ServeOpts) (*Server, error) { return serve.NewServer(o) }
func serverHandler(s *Server) http.Handler   { return s.Handler() }
func newCache(budget int64) *serve.Cache     { return serve.NewCache(budget) }
func openStore(dir string) (*Store, error)   { return serve.OpenStore(dir) }

func newRing(self string, members []string) (*cluster.Ring, error) {
	return cluster.NewRing(self, members, cluster.DefaultVnodes)
}

func newFiller(timeout time.Duration) *cluster.Filler { return cluster.NewFiller(timeout) }

// --- obs ---

func newRegistry() *Registry { return obs.New() }
