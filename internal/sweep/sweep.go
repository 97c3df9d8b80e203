// Package sweep is the parallel experiment engine: it fans independent
// simulation configurations (process counts, message sizes, chaos seeds,
// ablation variants) across worker goroutines while preserving the
// repository's determinism contract — same seed, byte-identical output,
// at any worker count.
//
// The unit of parallelism is one whole simulation. Each armci.World owns
// its kernel, network, topology, fault injector, and runtimes, so
// concurrent runs share nothing mutable; what remains process-global is
// handled here:
//
//   - observability: every run records into its own child registry
//     (Registry.NewChild of the engine's parent), and children merge back
//     in submission order as points complete — ordered incremental
//     emission through a reorder buffer, not a barrier — optionally
//     notifying a per-run Emitter after each in-order merge. Merge
//     semantics are chosen so the parent ends up byte-identical to what
//     serial runs recording into one shared registry would have produced
//     — even the serial path (workers=1) goes through child+merge, so
//     worker count can never change a single exported byte.
//   - results: Map writes each run's result into its submission slot, so
//     callers assemble tables keyed by configuration index, never by
//     completion order.
//   - GC policy: the process-global GOGC knob is set exactly once, here,
//     instead of per run in each driver.
package sweep

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/armci"
	"repro/internal/obs"
)

var gcOnce sync.Once

// TuneGC sets the sweep GC posture (GOGC=200: heap headroom traded for
// fewer collections over many back-to-back simulations) exactly once per
// process. Engines call it on construction; drivers that measure wall
// clock before building an engine may call it directly. Library code
// must not mutate GC state anywhere else.
func TuneGC() {
	gcOnce.Do(func() { debug.SetGCPercent(200) })
}

// Ctx is what a sweep task runs with: the run's isolated registry and
// the engine's intra-run shard budget. Attach both to a simulation
// through Cfg.
type Ctx struct {
	// Reg is this run's private registry (nil when the engine has no
	// parent registry). It must not outlive the task: the engine merges
	// and discards it.
	Reg *obs.Registry
	// Shards is the engine's per-run lane worker budget, forwarded to
	// armci.Config.Shards. Purely an execution value: shard count never
	// changes a simulation's results.
	Shards int
}

// Cfg attaches the run's registry and shard budget to a configuration —
// the one-liner every harness builds its Config through.
func (c *Ctx) Cfg(cfg armci.Config) armci.Config {
	cfg.Obs = c.Reg
	cfg.Shards = c.Shards
	return cfg
}

// CoreBudget divides the machine's cores between sweep workers and
// intra-run lane shards, so the two layers of parallelism compose
// instead of multiplying: each concurrent simulation costs max(1,
// shards) cores, and workers x that cost must not exceed GOMAXPROCS
// (`-parallel 4` x `-shards 4` on a 4-core box resolves to 4x1, not 16
// runnable goroutines thrashing 4 cores).
//
// workers <= 0 asks for as many sweep workers as the shard budget
// leaves; shards 0 (one lane worker) costs one core and passes through
// unchanged, as does a negative value, which armci.Config then refuses
// (drivers reject it earlier, where they parse it).
// An explicit worker count is always honored — sweep workers are cheap
// goroutines, and byte-identity at any worker count is a tested
// contract — so only the multiplied shard budget shrinks to fit.
func CoreBudget(workers, shards int) (int, int) {
	p := runtime.GOMAXPROCS(0)
	cost := shards
	if cost < 1 {
		cost = 1
	}
	if workers <= 0 {
		workers = p / cost
		if workers < 1 {
			workers = 1
		}
	}
	if shards > 0 && workers*shards > p {
		shards = p / workers
		if shards < 1 {
			shards = 1
		}
	}
	return workers, shards
}

// Engine schedules sweep tasks over a fixed worker count. It is an
// immutable (workers, shards, parent registry) triple, so Map calls on
// one engine may overlap — provided they do not merge into the same
// registry (a registry is single-threaded): overlapping callers use a nil
// parent or give each call its own with WithRegistry.
type Engine struct {
	workers int
	shards  int
	parent  *obs.Registry
}

// NewSharded returns the execution plan every driver resolves once at
// its edge: tasks fan across workers sweep workers (<= 0 selects as many
// as GOMAXPROCS allows), every simulation executes on shards parallel
// lane workers (armci.Config.Shards), and runs record into parent (nil
// for no observability). The (workers, shards) pair is resolved through
// CoreBudget, so the combined goroutine count never oversubscribes
// GOMAXPROCS. Construction fixes the process GC posture via TuneGC.
func NewSharded(workers, shards int, parent *obs.Registry) *Engine {
	TuneGC()
	workers, shards = CoreBudget(workers, shards)
	return &Engine{workers: workers, shards: shards, parent: parent}
}

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return e.workers }

// Shards returns the per-run lane worker budget after CoreBudget
// resolution.
func (e *Engine) Shards() int { return e.shards }

// Map runs fn for every index in [0, n), fanning the calls across the
// engine's workers, and returns the results in index order. fn must be
// self-contained: it may only touch its Ctx and its own locals (never a
// shared table or registry), which is what makes the fan-out safe and
// the output independent of scheduling. Determinism: result slot i
// always holds run i's value, and child registries merge into the parent
// in index order, so any worker count produces identical bytes.
func Map[T any](e *Engine, n int, fn func(c *Ctx, i int) T) []T {
	return MapCtx(e, context.Background(), n, fn)
}

// MapCtx is Map with cooperative cancellation. One simulation is an
// uninterruptible unit — a task that has started always runs to
// completion — but once ctx is done no further task is started: workers
// drain, the children of the tasks that did run merge into the parent in
// index order, and the result slots of tasks that never ran keep their
// zero values. Callers that care whether the sweep was cut short check
// ctx.Err() afterwards and treat the output as partial (never render or
// cache a grid assembled from a cancelled sweep). A nil ctx means no
// cancellation.
//
// A task that panics fails the whole sweep the way it would on one
// worker: no further task starts, running ones finish, every index below
// the lowest panicking one is delivered, nothing at or past it is, and
// that task's panic value is re-raised on the caller's goroutine — where
// the caller's own recover can see it.
//
// Result delivery is ordered incremental emission, not a barrier:
// workers publish completed points as they finish, and the caller's
// goroutine merges each point's child registry — and notifies the
// context's Emitter, when one is attached via WithEmitter — as soon as
// every earlier index has been delivered. A reorder buffer holds
// out-of-order completions (at most the number of points still in
// flight past the delivery cursor). Since the merge order is exactly
// the index order the old barrier implementation used, the parent
// registry's final bytes — and therefore every rendered artifact — are
// unchanged: TestMapOrderedEmissionMatchesBarrier pins this against a
// reference barrier implementation at several worker counts.
func MapCtx[T any](e *Engine, ctx context.Context, n int, fn func(c *Ctx, i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	parent := registryFrom(ctx, e.parent)
	em := emitterFrom(ctx)
	deliver := func(i int, reg *obs.Registry) {
		parent.Merge(reg)
		if em != nil {
			em.PointDone(i, n, reg)
		}
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		c := &Ctx{Shards: e.shards}
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return out
			}
			c.Reg = parent.NewChild()
			out[i] = fn(c, i)
			deliver(i, c.Reg)
		}
		return out
	}

	regs := make([]*obs.Registry, n)
	next := int64(-1)
	donec := make(chan int, n)
	var wg sync.WaitGroup
	// A task that panics stops the hand-out of further indexes. Indexes
	// are handed out in order and started tasks always finish, so the
	// lowest panicking index is the one a serial sweep would have died on.
	panics := make([]any, n) // what task i's panic carried, nil if it returned
	var stopped atomic.Bool
	run := func(c *Ctx, i int) {
		defer func() {
			if panics[i] = recover(); panics[i] != nil {
				stopped.Store(true)
			}
		}()
		out[i] = fn(c, i)
		donec <- i
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Ctx{Shards: e.shards}
			for ctx.Err() == nil && !stopped.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				c.Reg = parent.NewChild()
				regs[i] = c.Reg
				run(c, i)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(donec)
	}()

	// Ordered delivery: the reorder buffer (ready) holds out-of-order
	// completions until every earlier index has arrived.
	ready := make([]bool, n)
	delivered := 0
	for i := range donec {
		ready[i] = true
		for delivered < n && ready[delivered] {
			deliver(delivered, regs[delivered])
			delivered++
		}
	}
	for _, p := range panics {
		if p != nil {
			// Every index below this one has been delivered, nothing at or
			// past it has: where the serial path stands when fn panics
			// under it. Fail the same way, on the caller's goroutine.
			panic(p)
		}
	}
	// A cancelled sweep leaves holes (tasks that never started) that stall
	// the cursor; points completed past the first hole still deliver in
	// index order, matching the barrier path's nil-skipping merge loop.
	for i := delivered; i < n; i++ {
		if ready[i] {
			deliver(i, regs[i])
		}
	}
	return out
}
