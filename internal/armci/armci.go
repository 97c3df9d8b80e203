// Package armci implements the paper's contribution: a scalable ARMCI
// (Aggregate Remote Memory Copy Interface) communication subsystem for
// Blue Gene/Q over PAMI. It provides:
//
//   - contiguous get/put/accumulate with an RDMA fast path and an
//     active-message fallback when memory regions are unavailable (§III.C.1);
//   - uniformly non-contiguous (strided) transfers as lists of
//     non-blocking RDMA chunks, with a typed/packed path for tall-skinny
//     patches (§III.C.2);
//   - atomic read-modify-write (load-balance counters) accelerated by an
//     asynchronous progress thread, since BG/Q's network has no generic
//     atomics (§III.D);
//   - location consistency with per-memory-region conflict tracking to
//     avoid false-positive fences (§III.E);
//   - endpoint caching and an LFU remote memory-region cache (§III.B).
package armci

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/pami"
	"repro/internal/sim"
)

// ConsistencyMode selects how conflicting memory accesses are tracked.
type ConsistencyMode int

const (
	// ConsistencyPerRegion keys outstanding-write status on the remote
	// memory region (cs_mr, an 8-bit status per region per target), so
	// reads of one distributed structure never fence writes to another.
	// This is the paper's proposed design and the default.
	ConsistencyPerRegion ConsistencyMode = iota
	// ConsistencyNaive keys the status on the target process alone
	// (cs_tgt): any outstanding write to a process fences every read from
	// it, producing the false positives §III.E describes.
	ConsistencyNaive
)

// Config describes one simulated job.
type Config struct {
	// Procs is the number of ARMCI processes (ranks).
	Procs int
	// ProcsPerNode is c, the ranks placed per node (BG/Q default 16).
	ProcsPerNode int
	// Contexts is ρ, the PAMI contexts per process (1 or 2). Zero picks
	// the mode default: 2 with the async thread, 1 without.
	Contexts int
	// AsyncThread enables the asynchronous progress thread (the paper's
	// "AT" configuration; false is the "D"/default configuration).
	AsyncThread bool
	// Consistency selects conflict tracking (default per-region).
	Consistency ConsistencyMode
	// RegionCacheCap bounds the remote memory-region cache (LFU beyond
	// it). Zero picks 4096 entries (32 KB of γ=8 B descriptors — small
	// enough for BG/Q, large enough that only first-touch misses occur
	// for typical σ·ζ working sets).
	RegionCacheCap int
	// MaxRegions bounds per-process region registrations; 0 is unlimited
	// and a negative value forbids registration entirely. Low values
	// force the fallback protocols.
	MaxRegions int
	// TypedThreshold is the contiguous-chunk size below which strided
	// transfers switch from chunk-listing RDMA to the typed/packed path.
	// §III.C.2 argues chunk-listing RDMA for everything except genuinely
	// tall-skinny patches, so the default is a conservative 32 bytes.
	TypedThreshold int
	// Params overrides the machine model (nil uses the calibrated BG/Q).
	Params *network.Params
	// Shards is the number of worker goroutines that execute lane
	// windows (0 and 1 both mean one; capped at the node count). The
	// simulation is always partitioned into one lane per node, fixed by
	// the topology, so worker count can never change a simulated byte —
	// only wall-clock time. Negative values are rejected.
	Shards int
	// Seed perturbs the deterministic jitter streams.
	Seed uint64
	// Fault, when non-nil, installs deterministic fault injection on the
	// network and arms the recovery machinery (timeouts, retries,
	// degradation) throughout the stack. Nil models the paper's perfectly
	// reliable torus at zero overhead beyond one nil check per send.
	Fault *fault.Plan
	// Obs, when non-nil, instruments every layer of the stack — sim
	// thread timelines, network link utilization, PAMI progress-engine
	// metrics, ARMCI op counts/latencies — into the given registry. Nil
	// costs one pointer check per instrumentation point.
	Obs *obs.Registry
	// Shelf, when non-nil, is what the world is built from and gives back
	// when the next world is lent it: runtimes, clients, contexts, spaces,
	// lanes and threads, flights, payload buffers, rank heaps and the
	// torus (Shelf); sweep.Ctx.Cfg attaches its worker's. Nil gives the
	// world a private one. Purely an execution value: it never changes a
	// simulated byte. A shelf serves one world at a time, and everything
	// reachable from a World stays readable until its shelf lends the next
	// world.
	Shelf *Shelf

	// retry replaces defaultRetry on a chaos run; tests shorten the budget
	// with it.
	retry *retryPolicy
}

// withDefaults validates the configuration and fills in mode defaults.
// Invalid configurations return a descriptive error instead of panicking:
// Run surfaces it to the caller, which is the contract experiment
// harnesses rely on when sweeping configuration spaces.
func (c Config) withDefaults() (Config, error) {
	if c.Procs <= 0 {
		return c, fmt.Errorf("armci: Config.Procs must be positive, got %d", c.Procs)
	}
	if c.ProcsPerNode < 0 {
		return c, fmt.Errorf("armci: Config.ProcsPerNode must be non-negative, got %d", c.ProcsPerNode)
	}
	if c.ProcsPerNode == 0 {
		c.ProcsPerNode = 16
	}
	if c.Contexts == 0 {
		if c.AsyncThread {
			c.Contexts = 2
		} else {
			c.Contexts = 1
		}
	}
	if c.Contexts < 1 || c.Contexts > 2 {
		return c, fmt.Errorf("armci: Config.Contexts must be 1 or 2 (ρ in the paper), got %d", c.Contexts)
	}
	if c.RegionCacheCap < 0 {
		return c, fmt.Errorf("armci: Config.RegionCacheCap must be non-negative, got %d", c.RegionCacheCap)
	}
	if c.RegionCacheCap == 0 {
		c.RegionCacheCap = 4096
	}
	if c.TypedThreshold < 0 {
		return c, fmt.Errorf("armci: Config.TypedThreshold must be non-negative, got %d", c.TypedThreshold)
	}
	if c.TypedThreshold == 0 {
		c.TypedThreshold = 32
	}
	if c.Params == nil {
		c.Params = network.DefaultParams()
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("armci: Config.Shards must be non-negative, got %d", c.Shards)
	}
	if c.Params.BarrierLatency < c.Params.Lookahead() {
		// The barrier deposits its release at max(arrival)+BarrierLatency;
		// lane horizons only guarantee that time is in every lane's future
		// when the latency is at least the lookahead.
		return c, fmt.Errorf("armci: Params.BarrierLatency (%d) must be at least the network lookahead (%d)",
			c.Params.BarrierLatency, c.Params.Lookahead())
	}
	if c.Params.AdaptiveRouting {
		// The fence protocol chases prior traffic with an ordered control
		// message, which only works under deterministic routing's
		// per-pair FIFO (the paper's footnote 1).
		return c, fmt.Errorf("armci: AdaptiveRouting breaks fence ordering; network-layer studies only")
	}
	if c.Fault != nil && c.Params.HardwareAMO {
		// The what-if NIC atomics path has no sequence numbers to dedup
		// on; combining it with at-least-once delivery would corrupt.
		return c, fmt.Errorf("armci: fault injection is not supported with Params.HardwareAMO")
	}
	return c, nil
}

// World is one simulated job: the machine plus every rank's runtime.
// What is the same for every rank — the protocol handler table, the
// thread bodies, the barrier's arrival operation — is built here once;
// what a rank owns is its element of Runtimes.
type World struct {
	K   *sim.Kernel
	M   *pami.Machine
	Cfg Config

	// Runtimes holds every rank's runtime by value; a rank's own main
	// thread brings its element up (Start). Take &w.Runtimes[rank].
	Runtimes []Runtime
	svcIdx   int // context index remote-service AMs are addressed to

	handlers  [nProtocol]pami.AMHandler // protocol[i] bound to the dispatched-on rank's runtime
	asyncBody func(*sim.Thread)         // body of every asynchronous progress thread
	asyncIdle func(*sim.Thread) bool    // its idle pass, run by the lane (pami.Context.SetIdlePass)
	barArrive func(at sim.Time)         // barrierArrive, as the one value every Barrier defers

	// Faults is the installed injector (nil outside chaos runs); chaos
	// harnesses read its counters after Run.
	Faults *fault.Injector

	// Collective state. barCount/barMax are only ever touched from
	// serial context (window-boundary appliers); the exchange buffers are
	// written at disjoint rank indexes with barriers separating writes
	// from remote reads.
	barCount int
	barMax   sim.Time
	xchF64   []float64

	// The current Malloc generation's Allocation. Rank threads run on
	// different lane workers, so the first one to enter a generation
	// builds it under xchMu; everyone keeps their own reference after.
	xchMu  sync.Mutex
	xch    *Allocation
	xchGen int

	// opObs holds each lane's metric handles (laneOpObs), indexed by lane;
	// nil when Config.Obs is.
	opObs []opObs
}

// NewWorld builds the machine and empty runtime slots, returning an error
// for invalid configurations. Runtimes come to life in Start.
func NewWorld(k *sim.Kernel, cfg Config) (*World, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	shelf := cfg.Shelf
	if shelf == nil {
		shelf = NewShelf()
	}
	tor := shelf.Torus(cfg.Procs, cfg.ProcsPerNode)
	if cfg.Fault != nil {
		if err := cfg.Fault.Validate(tor.Nodes(), tor.NumLinks()); err != nil {
			return nil, err
		}
	}
	if cfg.Obs != nil {
		k.SetObs(cfg.Obs)
	}
	w := &World{K: k, Cfg: cfg}
	shelf.lend(w)
	// One lane per node, fixed by the topology; Shards only picks the
	// worker count, so results are invariant across shard settings.
	k.ConfigureLanes(tor.Nodes(), cfg.Shards, cfg.Params.Lookahead(), shelf.Lanes())
	w.M = pami.NewMachine(k, tor, cfg.Params, cfg.Contexts, shelf.Shelf)
	w.M.SeedBase = cfg.Seed
	if cfg.AsyncThread {
		w.svcIdx = cfg.Contexts - 1
	}
	if cfg.Obs != nil {
		w.opObs = make([]opObs, max(1, len(k.Lanes())))
		w.observe(cfg.Obs)
	}
	w.bindHandlers()
	w.asyncBody = func(pt *sim.Thread) { w.Runtimes[pt.Index()].svcCtx.ProgressLoop(pt) }
	w.asyncIdle = func(pt *sim.Thread) bool { return w.Runtimes[pt.Index()].svcCtx.IdlePass(pt) }
	w.barArrive = w.barrierArrive
	if cfg.Fault != nil {
		w.Faults = fault.NewInjector(k, cfg.Fault, cfg.Seed, cfg.Obs)
		w.M.Net.SetFault(w.Faults)
	}
	return w, nil
}

// faulty reports whether this is a chaos run; recovery paths arm on it.
func (w *World) faulty() bool { return w.Faults != nil }

// Start spawns one main thread per rank. Each creates its PAMI state,
// synchronizes, runs body, then participates in a collective finalize.
// The threads share one body and find their rank as their spawn index.
func (w *World) Start(body func(th *sim.Thread, rt *Runtime)) {
	tor := w.M.Net.Torus()
	main := func(th *sim.Thread) {
		rt := newRuntime(w, th, th.Index())
		rt.Barrier(th) // all clients exist before any traffic
		body(th, rt)
		rt.finalize(th)
	}
	for rank := 0; rank < w.Cfg.Procs; rank++ {
		t := w.K.SpawnIndexed(w.K.LaneOf(tor.NodeOf(rank)), "rank", rank, main)
		t.SetObsTrack(obs.TrackRank)
	}
}

// Run builds a world, runs body on every rank, and drives the simulation
// to completion. Invalid configurations return an error before any
// simulation work happens. The world stays readable until its shelf
// (Config.Shelf) lends the next one.
func Run(cfg Config, body func(th *sim.Thread, rt *Runtime)) (*World, error) {
	k := sim.NewKernel()
	w, err := NewWorld(k, cfg)
	if err != nil {
		return nil, err
	}
	w.Start(body)
	return w, k.Run()
}

// MustRun is Run that fails loudly; experiment harnesses use it.
func MustRun(cfg Config, body func(th *sim.Thread, rt *Runtime)) *World {
	w, err := Run(cfg, body)
	if err != nil {
		panic(err)
	}
	return w
}

// AggregateStats sums every rank's protocol counters; experiment
// harnesses report these next to the timing results.
func (w *World) AggregateStats() Stats {
	var total Stats
	for i := range w.Runtimes {
		// A rank that never came up (the run failed first) has counted
		// nothing.
		for st, v := range w.Runtimes[i].Stats {
			total[st] += v
		}
	}
	return total
}

// Runtime is one rank's ARMCI runtime: the public API surface of this
// package. All methods must be called from that rank's own threads.
//
// A runtime lives in its world's Runtimes slice and owns, by value,
// everything it has exactly one of (counters, jitter stream, region
// cache, the first record of its clique table). What grows with use is
// sized by what the rank has done, never by p, and stays nil until first
// needed: the clique table's further records (one per peer addressed,
// holding all the rank keeps about that peer: endpoints, fence counts,
// consistency status, region-cache bucket, RDMA suspect window), operation
// and request slots (chunks of chunkLen), hosted mutexes. An idle rank
// costs what it uses, and a rank of a world built on a shelf reuses the
// room its element grew in the worlds before (Shelf, reset).
type Runtime struct {
	_    sim.NoCopy
	W    *World
	Rank int
	C    *pami.Client

	mainCtx *pami.Context
	svcCtx  *pami.Context

	peers   clique      // one record per peer addressed: the rank's only per-peer state
	regions regionCache // the seed blocks and counts; buckets live in peers (cache)
	// The live collective allocations; the list starts on allocArr
	// (MallocErr), so a rank's first Malloc costs no list.
	allocs   []*Allocation
	allocArr [1]*Allocation
	mallocs  int // collective Mallocs entered: the exchange generation

	// Pending AM requests, found by id: pend[id & (len(pend)-1)], a power
	// of two long. Ids are the monotone pendSeq, so the ids outstanding at
	// once are a window of it, and a table longer than the window never
	// collides; a collision doubles it.
	pendSeq   int64
	pend      []*pendReq
	pendFree  *pendReq  // retired requests; lane-local like pend, so unsynchronised
	pendChunk []pendReq // where new requests are cut from
	slotFree  *opSlot   // released operation slots (releaseSlot)
	slotChunk []opSlot  // where new slots are cut from
	implicit  []Handle  // Track'ed handles, for WaitAll

	mutexes map[int]*muState

	// Stats exposes protocol counters: get.rdma, get.fallback, put.rdma,
	// put.am, acc, rmw, fence, conflict.avoided, regioncache.{hit,miss,
	// evict}, strided.{chunks,typed}, ...
	Stats Stats

	main     *sim.Thread // the rank's main thread; its name is the trace track id
	progress *sim.Thread
	rng      sim.RNG

	// Barrier bookkeeping: barGen counts barriers this rank has entered,
	// barRelease the releases delivered to it. Both are lane-local — the
	// release event is deposited into this rank's own lane, and is the
	// runtime itself as a sim.Action (barrierRelease).
	barGen     uint64
	barRelease uint64

	obsOps *opObs // this rank's lane's handles; nil when Config.Obs is nil

	// Recovery state, armed only on chaos runs (Config.Fault non-nil).
	retry   *retryPolicy // nil on a healthy run
	applied pami.Dedup   // target-side write-AM dedup by (initiator, pend id)
}

// newRuntime brings rank's runtime up in its slot of w.Runtimes, on the
// rank's own main thread.
func newRuntime(w *World, th *sim.Thread, rank int) *Runtime {
	c := w.M.NewClient(th, rank)
	c.MaxRegions = w.Cfg.MaxRegions
	c.CreateContexts(th, w.Cfg.Contexts)

	rt := &w.Runtimes[rank]
	rt.W = w
	rt.Rank = rank
	rt.C = c
	rt.mainCtx = &c.Contexts[0]
	rt.svcCtx = &c.Contexts[w.svcIdx]
	rt.main = th
	rt.rng.Seed(w.Cfg.Seed ^ (uint64(rank)*0x5851f42d + 7))
	rt.obsOps = w.laneOpObs(c.Ln)
	if w.faulty() {
		rt.retry = w.Cfg.retry
		if rt.retry == nil {
			rt.retry = &defaultRetry
		}
	}
	for i := range c.Contexts {
		for j := range w.handlers {
			c.Contexts[i].SetDispatch(protocol[j].id, w.handlers[j])
		}
	}

	if w.Cfg.AsyncThread {
		rt.progress = w.K.SpawnIndexed(c.Ln, "async", rank, w.asyncBody)
		rt.progress.SetObsTrack(obs.TrackProgress)
		rt.svcCtx.SetIdlePass(rt.progress, w.asyncIdle)
	}
	return rt
}

// Procs returns the job size.
func (rt *Runtime) Procs() int { return rt.W.Cfg.Procs }

// Space returns this rank's address space (for building local buffers).
func (rt *Runtime) Space() *mem.Space { return rt.C.Space }

// LocalAlloc allocates and eagerly registers a local communication buffer
// (one of the paper's τ local buffers). Registration failure is fine: the
// fallback protocols cover unregistered memory.
func (rt *Runtime) LocalAlloc(th *sim.Thread, n int) mem.Addr {
	a := rt.C.Space.Alloc(n)
	rt.C.RegisterMemory(th, a, n)
	return a
}

// Progress makes one explicit pass over this rank's progress engine —
// what a default-mode application does between compute phases to service
// remote AMOs and fallback requests. With an async thread it is rarely
// needed. Returns the number of work items served.
func (rt *Runtime) Progress(th *sim.Thread) int {
	n := rt.mainCtx.Progress(th)
	if rt.svcCtx != rt.mainCtx {
		n += rt.svcCtx.Progress(th)
	}
	return n
}

// jit perturbs a software cost deterministically.
func (rt *Runtime) jit(t sim.Time) sim.Time {
	return rt.rng.Jitter(t, rt.W.Cfg.Params.JitterFrac)
}

// faulty reports whether this runtime's recovery machinery is armed.
func (rt *Runtime) faulty() bool { return rt.W.Faults != nil }

// tr records a protocol decision as an instant on this rank's obs trace
// track (categories: "rdma", "am", "fence", "fault"), so decisions line
// up with the thread/link timelines in Perfetto. The legacy trace.Recorder
// shim this used to feed is gone; obs is the one tracing API.
func (rt *Runtime) tr(cat, what string, arg int64) {
	rt.main.Trace().InstantArg(what, cat, rt.C.Ln.Now(), arg)
}

// newPend takes a pending-request slot under the next id: a retired one
// when there is one, else the next of the current chunk, so a rank in
// steady state allocates none.
func (rt *Runtime) newPend() (int64, *pendReq) {
	rt.pendSeq++
	id := rt.pendSeq
	if rt.pend == nil {
		rt.pend = make([]*pendReq, chunkLen)
	}
	for rt.pend[rt.pendIndex(id)] != nil {
		rt.growPend()
	}
	p := rt.pendFree
	if p != nil {
		rt.pendFree, p.next = p.next, nil
	} else {
		if len(rt.pendChunk) == 0 {
			rt.pendChunk = make([]pendReq, chunkLen)
		}
		p = &rt.pendChunk[0]
		rt.pendChunk = rt.pendChunk[1:]
	}
	p.id = id
	rt.pend[rt.pendIndex(id)] = p
	return id, p
}

func (rt *Runtime) pendIndex(id int64) int { return int(id) & (len(rt.pend) - 1) }

// pendMark is the lowest pend id the runtime still waits on (the next one
// when none): the low-water mark a write AM carries for pami.Dedup.
func (rt *Runtime) pendMark() int64 {
	low := rt.pendSeq + 1
	for _, p := range rt.pend {
		if p != nil {
			low = min(low, p.id)
		}
	}
	return low
}

// growPend doubles the pending table until every outstanding request has
// an index of its own.
func (rt *Runtime) growPend() {
	old := rt.pend
	for size := 2 * len(old); ; size *= 2 {
		rt.pend = make([]*pendReq, size)
		fits := true
		for _, p := range old {
			if p == nil {
				continue
			}
			if i := rt.pendIndex(p.id); rt.pend[i] == nil {
				rt.pend[i] = p
			} else {
				fits = false
				break
			}
		}
		if fits {
			return
		}
	}
}

// findPend returns pending request id, or nil when it is not pending
// (already retired, or never taken).
func (rt *Runtime) findPend(id int64) *pendReq {
	if len(rt.pend) == 0 {
		return nil
	}
	if p := rt.pend[rt.pendIndex(id)]; p != nil && p.id == id {
		return p
	}
	return nil
}

// dropPend retires request id and returns a copy of its state; ok is
// false when id is not pending (already retired, or never taken). The
// slot goes back to the free list for the next newPend, so a caller reads
// what it still needs from the copy, never from a *pendReq it held.
func (rt *Runtime) dropPend(id int64) (p pendReq, ok bool) {
	slot := rt.findPend(id)
	if slot == nil {
		return pendReq{}, false
	}
	rt.pend[rt.pendIndex(id)] = nil
	p = *slot
	*slot = pendReq{next: rt.pendFree}
	rt.pendFree = slot
	return p, true
}

// finalize drains outstanding work and synchronizes before teardown.
// After the closing barrier no rank issues further traffic, so each rank
// stops its own progress threads — self-contained per lane, which is
// what lets teardown run inside parallel lane windows.
func (rt *Runtime) finalize(th *sim.Thread) {
	rt.WaitAll(th)
	rt.AllFence(th)
	rt.Barrier(th)
	for i := range rt.C.Contexts {
		rt.C.Contexts[i].StopProgressLoop()
	}
}
