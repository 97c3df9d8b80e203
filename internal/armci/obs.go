package armci

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// opKind enumerates the instrumented ARMCI operations.
type opKind int

const (
	opGet opKind = iota
	opPut
	opAcc
	opRmw
	opGetS
	opPutS
	opAccS
	numOps
)

var opNames = [numOps]string{"get", "put", "acc", "rmw", "gets", "puts", "accs"}

// sizeClass buckets a transfer size for op-count labeling.
func sizeClass(n int) int {
	switch {
	case n <= 256:
		return 0
	case n <= 4<<10:
		return 1
	case n <= 64<<10:
		return 2
	default:
		return 3
	}
}

var sizeClassNames = [...]string{"le256", "le4K", "le64K", "gt64K"}

// stat enumerates a runtime's protocol counters.
type stat int

const (
	statAcc stat = iota
	statAccStrided
	statAllFence
	statConflictAvoided
	statConflictFence
	statDupAM
	statEpCreated
	statFence
	statFenceAck
	statFenceFlush
	statGetFallback
	statGetRdma
	statMalloc
	statMutexLock
	statMutexUnlock
	statPutAM
	statPutRdma
	statRdmaSuspect
	statRecovered
	statRegionEvict
	statRegionHit
	statRegionMiss
	statRegionUnresolved
	statRetry
	statRetryExhausted
	statRmw
	statStridedChunks
	statStridedTyped
	statTimeout
	statVector
	numStats
)

var statNames = [numStats]string{"acc", "acc.strided", "allfence", "conflict.avoided",
	"conflict.fence", "dup.am", "ep.created", "fence", "fence.ack", "fence.flush",
	"get.fallback", "get.rdma", "malloc", "mutex.lock", "mutex.unlock", "put.am",
	"put.rdma", "rdma.suspect", "recovered", "regioncache.evict", "regioncache.hit",
	"regioncache.miss", "regioncache.unresolved", "retry", "retry.exhausted", "rmw",
	"strided.chunks", "strided.typed", "timeout", "vector"}

// Stats is one rank's protocol counters, indexed by stat. Every increment
// is positive, so a counter is nonzero exactly when some operation counted
// into it.
type Stats [numStats]int64

// Get returns the counter named name ("get.rdma", "fence", ...), 0 for a
// name that is none of them.
func (s Stats) Get(name string) int64 {
	for st, n := range statNames {
		if n == name {
			return s[st]
		}
	}
	return 0
}

// opObs caches the registry handles for blocking-operation counts and
// latency. The handles are global (registry-deduplicated), so every
// runtime shares them; only handle creation pays for name formatting.
type opObs struct {
	cnt [numOps][len(sizeClassNames)]*obs.Counter
	lat [numOps]*obs.Histogram
}

func newOpObs(r *obs.Registry) *opObs {
	if r == nil {
		return nil
	}
	o := &opObs{}
	for op := opKind(0); op < numOps; op++ {
		for sc, scName := range sizeClassNames {
			o.cnt[op][sc] = r.Counter(fmt.Sprintf("armci/op.count{op=%s,size=%s}", opNames[op], scName))
		}
		o.lat[op] = r.Histogram(fmt.Sprintf("armci/op.latency_ns{op=%s}", opNames[op]),
			obs.DefaultLatencyBounds)
	}
	return o
}

// obsOp records one completed blocking operation of n bytes taking d.
func (rt *Runtime) obsOp(op opKind, n int, d sim.Time) {
	o := rt.obsOps
	if o == nil {
		return
	}
	o.cnt[op][sizeClass(n)].Add(1)
	o.lat[op].Observe(d)
}

// publishStats exports this rank's protocol counters (the nonzero Stats,
// the region cache, and the PAMI context lock counts it fronts) into the
// registry so cmd/obs-report sees them; called once at finalize, so the
// hot path pays nothing.
func (rt *Runtime) publishStats(r *obs.Registry) {
	if r == nil {
		return
	}
	for st, v := range rt.Stats {
		if v != 0 {
			r.Counter(fmt.Sprintf("armci/%s{rank=%d}", statNames[st], rt.Rank)).Add(v)
		}
	}
	r.Counter(fmt.Sprintf("armci/regioncache.entries{rank=%d}", rt.Rank)).Add(int64(rt.regions.Len()))
	for i := range rt.C.Contexts {
		x := &rt.C.Contexts[i]
		lbl := fmt.Sprintf("{rank=%d,ctx=%d}", rt.Rank, x.Index)
		r.Counter("pami/ctx.lock.acquired" + lbl).Add(int64(x.Lock.Acquired))
		r.Counter("pami/ctx.lock.contended" + lbl).Add(int64(x.Lock.Contended))
	}
}
