package armci

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/sim"
)

// GlobalPtr names remote memory: a rank and an address in its space.
type GlobalPtr struct {
	Rank int
	Addr mem.Addr
}

// Add offsets the pointer by n bytes.
func (g GlobalPtr) Add(n int) GlobalPtr {
	return GlobalPtr{Rank: g.Rank, Addr: g.Addr + mem.Addr(n)}
}

// String renders the pointer for diagnostics.
func (g GlobalPtr) String() string {
	return fmt.Sprintf("r%d:%#x", g.Rank, uint64(g.Addr))
}

// Allocation is the result of a collective Malloc: one block of the same
// size in every rank's space. It is one of the paper's σ "active global
// address structures". The world builds one per Malloc and every rank
// returns that same value — one translation table per allocation, not one
// copy per rank: each rank fills in its own slot of the exchange before
// the barrier and only reads afterwards.
type Allocation struct {
	ID    int
	Bytes int

	addrs []mem.Addr   // every rank's block
	reg   []bool       // whether that rank's registration succeeded
	nreg  atomic.Int64 // how many did

	// before[r] counts the registered ranks below r, for rank arithmetic
	// over the registered ones when some rank failed to register. The
	// first region cache that needs it builds it, after the exchange.
	beforeOnce sync.Once
	before     []int32
}

// At returns the block on the given rank.
func (a *Allocation) At(rank int) GlobalPtr {
	return GlobalPtr{Rank: rank, Addr: a.addrs[rank]}
}

// allRegistered reports whether every rank's registration succeeded, so
// that rank r is the r-th registered one.
func (a *Allocation) allRegistered() bool { return int(a.nreg.Load()) == len(a.reg) }

func (a *Allocation) countRegistered() {
	a.before = make([]int32, len(a.reg)+1)
	for r, ok := range a.reg {
		a.before[r+1] = a.before[r]
		if ok {
			a.before[r+1]++
		}
	}
}

// regBefore returns how many ranks below r (0 <= r <= p) registered.
func (a *Allocation) regBefore(r int) int {
	if a.allRegistered() {
		return r
	}
	a.beforeOnce.Do(a.countRegistered)
	return int(a.before[r])
}

// nthReg returns the k-th registered rank, counting from 0, or p when
// fewer than k+1 registered.
func (a *Allocation) nthReg(k int) int {
	p := len(a.reg)
	if a.allRegistered() {
		return min(k, p)
	}
	a.beforeOnce.Do(a.countRegistered)
	return sort.Search(p, func(r int) bool { return int(a.before[r+1]) > k })
}

// Barrier synchronizes all ranks over the hardware combining network:
// every rank is released at max over ranks of (arrival + BarrierLatency).
// Unlike a plain barrier, the waiting thread keeps driving its progress
// engine, so remote requests are still serviced while blocked — exactly
// what ARMCI_Barrier does and what the default-mode NWChem runs rely on.
//
// Each arrival is a deferred operation, applied in canonical order at a
// window boundary, and the release is deposited into every rank's own
// lane. The arrival's
// minEffect (now + BarrierLatency) caps the arriving lane's window, and
// BarrierLatency ≥ the network lookahead (enforced by withDefaults)
// guarantees the release time is in every other lane's future.
func (rt *Runtime) Barrier(th *sim.Thread) {
	rt.barGen++
	th.Lane().Defer(th.Now()+rt.W.Cfg.Params.BarrierLatency, rt.W.barArrive)
	rt.mainCtx.WaitCond(th, (*barrierReleased)(rt))
}

// barrierReleased is a runtime as what its Barrier waits for: the release
// of every barrier it entered.
type barrierReleased Runtime

func (r *barrierReleased) Holds() bool { return r.barRelease >= r.barGen }

// barrierArrive is one rank's arrival, issued at lane time at; it runs in
// serial context (the boundary applier). It accumulates the release time
// and, on the last arrival, deposits one release event into each rank's
// lane.
func (w *World) barrierArrive(at sim.Time) {
	if eff := at + w.Cfg.Params.BarrierLatency; eff > w.barMax {
		w.barMax = eff
	}
	w.barCount++
	if w.barCount < w.Cfg.Procs {
		return
	}
	release := w.barMax
	w.barCount, w.barMax = 0, 0
	for i := range w.Runtimes {
		rt := &w.Runtimes[i]
		rt.C.Ln.ScheduleAbsAction(release, (*barrierRelease)(rt))
	}
}

// barrierRelease is a runtime as the release event in the rank's own
// lane: the conversion allocates nothing, as sim.Thread.Waker's does not.
type barrierRelease Runtime

func (r *barrierRelease) Fire() {
	rt := (*Runtime)(r)
	rt.barRelease++
	// Nudge the rank's contexts so parked waiters re-check.
	for i := range rt.C.Contexts {
		rt.C.Contexts[i].Nudge()
	}
}

// Malloc collectively allocates bytes on every rank, registers the block
// for RDMA (registration may fail under MaxRegions — the fallback
// protocols then carry the traffic), and returns the address vector. The
// region metadata rides the collective exchange, pre-populating every
// rank's region cache — this is the σ·ζ·γ term of the paper's M_r space
// model (Eq. 5); under a tight RegionCacheCap the LFU policy evicts and
// the AM miss protocol takes over. All ranks must call Malloc in the
// same order.
func (rt *Runtime) Malloc(th *sim.Thread, bytes int) *Allocation {
	a, err := rt.MallocErr(th, bytes)
	if err != nil {
		panic(err)
	}
	return a
}

// MallocErr is the error-returning collective allocation: a non-positive
// size is reported instead of corrupting the exchange. Like Malloc, all
// ranks must call it in the same order (and so all ranks see the same
// error for the same call).
func (rt *Runtime) MallocErr(th *sim.Thread, bytes int) (*Allocation, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("armci: Malloc size must be positive, got %d", bytes)
	}
	addr := rt.C.Space.Alloc(bytes)
	reg := rt.C.RegisterMemory(th, addr, bytes)
	a := rt.W.allocationFor(rt.mallocs, len(rt.allocs), bytes)
	rt.mallocs++
	a.addrs[rt.Rank] = addr
	if reg != nil {
		a.reg[rt.Rank] = true
		a.nreg.Add(1)
	}
	rt.Barrier(th)
	rt.cache().insertExchange(a)
	if rt.allocs == nil {
		rt.allocs = rt.allocArr[:0]
	}
	rt.allocs = append(rt.allocs, a)
	// The exchange is never reused, so nothing needs protecting; the second
	// traversal stays as part of the collective's modelled cost.
	rt.Barrier(th)
	rt.Stats[statMalloc]++
	return a, nil
}

// allocationFor returns the Allocation of Malloc generation gen, building
// it for the first rank to ask (all ranks call Malloc in the same order
// with the same size, so they agree on id and bytes). A generation's ranks
// have all passed its barriers before any enters the next, so one slot is
// enough.
func (w *World) allocationFor(gen, id, bytes int) *Allocation {
	w.xchMu.Lock()
	defer w.xchMu.Unlock()
	if w.xch == nil || w.xchGen != gen {
		w.xch = &Allocation{ID: id, Bytes: bytes,
			addrs: make([]mem.Addr, w.Cfg.Procs), reg: make([]bool, w.Cfg.Procs)}
		w.xchGen = gen
	}
	return w.xch
}

// Free collectively releases an allocation. Every rank purges its remote
// region cache of the freed blocks, so later allocations reusing the
// addresses cannot hit stale RDMA metadata.
func (rt *Runtime) Free(th *sim.Thread, a *Allocation) {
	if err := rt.FreeErr(th, a); err != nil {
		panic(err)
	}
}

// FreeErr is the error-returning collective free: nil or already-freed
// allocations are reported instead of panicking deep in the allocator.
func (rt *Runtime) FreeErr(th *sim.Thread, a *Allocation) error {
	if a == nil {
		return fmt.Errorf("armci: Free of nil allocation")
	}
	known := false
	for _, al := range rt.allocs {
		if al == a {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("armci: Free of unknown or already-freed allocation %d", a.ID)
	}
	rt.Barrier(th) // no rank may still be using the block
	rt.cache().purgeExchange(a)
	own := a.addrs[rt.Rank]
	if reg := rt.C.FindRegion(own, a.Bytes); reg != nil {
		rt.C.DeregisterMemory(reg)
	}
	rt.C.Space.Free(own)
	for i, al := range rt.allocs {
		if al == a {
			rt.allocs = append(rt.allocs[:i], rt.allocs[i+1:]...)
			break
		}
	}
	rt.Barrier(th)
	return nil
}

// AllReduceSum is a collective sum over one float64 per rank (the GA_Dgop
// kernel NWChem uses for energies). It rides the hardware combining
// network: two barrier traversals, no point-to-point traffic. All ranks
// receive the identical total, summed in rank order so the result is
// deterministic.
func (rt *Runtime) AllReduceSum(th *sim.Thread, v float64) float64 {
	w := rt.W
	w.xchF64[rt.Rank] = v
	rt.Barrier(th)
	total := 0.0
	for _, x := range w.xchF64 {
		total += x
	}
	rt.Barrier(th) // protect the exchange buffer before reuse
	return total
}

// allocKey maps a remote address to the allocation (distributed data
// structure) containing it, or -1 when unknown. This is the cs_mr key of
// §III.E: conflicts are tracked per structure, not per process.
func (rt *Runtime) allocKey(g GlobalPtr) int {
	for _, a := range rt.allocs {
		base := a.addrs[g.Rank]
		if g.Addr >= base && uint64(g.Addr) < uint64(base)+uint64(a.Bytes) {
			return a.ID
		}
	}
	return -1
}
