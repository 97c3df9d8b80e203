package armci

import (
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

// The names of the blocking-operation metrics, formatted once per process.
var opCountNames, opLatencyNames = func() (cnt [numOps][len(sizeClassNames)]string, lat [numOps]string) {
	for op, opName := range opNames {
		for sc, scName := range sizeClassNames {
			cnt[op][sc] = "armci/op.count{op=" + opName + ",size=" + scName + "}"
		}
		lat[op] = "armci/op.latency_ns{op=" + opName + "}"
	}
	return cnt, lat
}()

// opObs holds one lane's handles for blocking-operation counts and
// latency, and on a chaos run for armci/ft.recovery_ns. Every rank on a
// lane records into the lane's registry, so the handles are the same
// objects for all of them: a world keeps one opObs per lane
// (World.laneOpObs), made when the lane's first rank comes up.
type opObs struct {
	cnt      [numOps][len(sizeClassNames)]*obs.Counter
	lat      [numOps]*obs.Histogram
	recovery *obs.Histogram // nil outside chaos runs
}

// laneOpObs returns lane ln's handles, making them on the first call; nil
// when the world records no metrics. Only ln's threads touch its slot, so
// it needs no lock.
func (w *World) laneOpObs(ln *sim.Lane) *opObs {
	if w.opObs == nil {
		return nil
	}
	o := &w.opObs[ln.Index()]
	if o.lat[0] != nil {
		return o
	}
	r := ln.Obs()
	for op := range o.cnt {
		for sc := range o.cnt[op] {
			o.cnt[op][sc] = r.Counter(opCountNames[op][sc])
		}
		o.lat[op] = r.Histogram(opLatencyNames[op], obs.DefaultLatencyBounds)
	}
	if w.faulty() {
		o.recovery = r.Histogram("armci/ft.recovery_ns", obs.DefaultLatencyBounds)
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

// obsRecovery records one recovery's latency, first missed deadline to
// eventual completion.
func (rt *Runtime) obsRecovery(d sim.Time) {
	if o := rt.obsOps; o != nil {
		o.recovery.Observe(d)
	}
}

// observe registers the ranks' families on r, read from the world's
// runtime slab: each protocol counter of every rank that counted into it
// (armci/<stat>), and the region cache of every rank that came up.
func (w *World) observe(r *obs.Registry) {
	rank := []string{"rank"}
	for st, name := range statFamilies {
		r.CounterFamily(name, rank, len(w.Runtimes), func(i int) (obs.Series, bool) {
			v := w.Runtimes[i].Stats[st]
			return obs.Series{Labels: [2]int32{int32(i)}, V: v}, v != 0
		})
	}
	r.CounterFamily("armci/regioncache.entries", rank, len(w.Runtimes), func(i int) (obs.Series, bool) {
		rt := &w.Runtimes[i]
		return obs.Series{Labels: [2]int32{int32(i)}, V: int64(rt.regions.total)}, rt.W != nil
	})
}

// statFamilies are the protocol counters' family names, "armci/<stat>".
var statFamilies = func() (names [numStats]string) {
	for st, n := range statNames {
		names[st] = "armci/" + n
	}
	return names
}()
