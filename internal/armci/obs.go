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

// publishStats exports this rank's ad-hoc protocol counters (the Stats
// bag, the region cache, and the PAMI context counters it fronts) into
// the registry so cmd/obs-report sees them; called once at finalize, so
// the hot path pays nothing.
func (rt *Runtime) publishStats(r *obs.Registry) {
	if r == nil {
		return
	}
	for name, v := range rt.Stats.Snapshot() {
		r.Counter(fmt.Sprintf("armci/%s{rank=%d}", name, rt.Rank)).Add(v)
	}
	r.Counter(fmt.Sprintf("armci/regioncache.entries{rank=%d}", rt.Rank)).Add(int64(rt.regions.Len()))
	for i := range rt.C.Contexts {
		x := &rt.C.Contexts[i]
		lbl := fmt.Sprintf("{rank=%d,ctx=%d}", rt.Rank, x.Index)
		r.Counter("pami/ctx.lock.acquired" + lbl).Add(int64(x.Lock.Acquired))
		r.Counter("pami/ctx.lock.contended" + lbl).Add(int64(x.Lock.Contended))
	}
}
