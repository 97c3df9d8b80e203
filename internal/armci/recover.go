package armci

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pami"
	"repro/internal/sim"
)

// This file is the recovery half of the fault-injection subsystem: the
// retry policy, the generic timed-retry loop, and the fault-tolerant
// variants of the blocking operations that the *Err API methods dispatch
// to on chaos runs (Config.Fault != nil).
//
// Recovery semantics, and their limits:
//
//   - Blocking *Err operations are end-to-end on chaos runs: a put or
//     accumulate returns only once it is remotely applied, a get once the
//     data landed, an rmw once the reply arrived. They therefore leave no
//     unflushed/unacked fence state behind.
//   - Every logical operation keeps one identity across retries — the AM
//     pend id or the PAMI rmw id is allocated once and re-sent — so the
//     target can dedup at-least-once deliveries. Non-idempotent ops
//     (accumulate, rmw) are applied exactly once; puts and gets are
//     byte-idempotent anyway.
//   - An RDMA attempt that times out marks the target's RDMA path
//     suspect: its region-cache entries are purged and operations degrade
//     to the AM protocols until the suspect window expires (§III.C.1's
//     fallback, reused as the graceful-degradation path).
//   - Non-blocking (Nb*) and strided operations are NOT fault-hardened:
//     their completions may simply never fire if a message is dropped.
//     Chaos workloads must use the blocking *Err forms.
type RetryPolicy struct {
	// MaxAttempts bounds sends per logical operation (first try included).
	MaxAttempts int
	// Timeout is the base per-attempt completion deadline for
	// control-sized operations.
	Timeout sim.Time
	// TimeoutPerByte scales the deadline for payload-bearing operations
	// (ns per payload byte), covering serialization both ways plus
	// queueing behind contended links.
	TimeoutPerByte float64
	// BackoffBase is the first retry's delay; it doubles per attempt up
	// to BackoffCap. Jittered deterministically from the rank's RNG so
	// retrying ranks do not stampede in lockstep.
	BackoffBase sim.Time
	// BackoffCap bounds the exponential growth.
	BackoffCap sim.Time
	// BackoffJitter is the jitter fraction applied to each backoff sleep.
	BackoffJitter float64
	// SuspectWindow is how long a target's RDMA path stays degraded to
	// the AM protocols after an RDMA attempt times out.
	SuspectWindow sim.Time
}

// DefaultRetryPolicy returns the calibrated chaos-run policy. The total
// retry budget (sum of timeouts and capped backoffs, ~4 ms for control
// ops) is what a fault plan's dead windows must stay under for the
// workload to ride through them.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{
		MaxAttempts:    8,
		Timeout:        60 * sim.Microsecond,
		TimeoutPerByte: 1.5,
		BackoffBase:    25 * sim.Microsecond,
		BackoffCap:     2 * sim.Millisecond,
		BackoffJitter:  0.25,
		SuspectWindow:  10 * sim.Millisecond,
	}
}

func (p *RetryPolicy) validate() error {
	switch {
	case p.MaxAttempts < 1:
		return fmt.Errorf("armci: RetryPolicy.MaxAttempts must be >= 1, got %d", p.MaxAttempts)
	case p.Timeout <= 0:
		return fmt.Errorf("armci: RetryPolicy.Timeout must be positive, got %d", p.Timeout)
	case p.TimeoutPerByte < 0:
		return fmt.Errorf("armci: RetryPolicy.TimeoutPerByte must be non-negative, got %g", p.TimeoutPerByte)
	case p.BackoffBase < 0 || p.BackoffCap < p.BackoffBase:
		return fmt.Errorf("armci: RetryPolicy backoff range [%d,%d] invalid", p.BackoffBase, p.BackoffCap)
	case p.BackoffJitter < 0 || p.BackoffJitter >= 1:
		return fmt.Errorf("armci: RetryPolicy.BackoffJitter must be in [0,1), got %g", p.BackoffJitter)
	case p.SuspectWindow < 0:
		return fmt.Errorf("armci: RetryPolicy.SuspectWindow must be non-negative, got %d", p.SuspectWindow)
	}
	return nil
}

// timeoutFor returns the per-attempt deadline for a payload of n bytes.
func (p *RetryPolicy) timeoutFor(n int) sim.Time {
	return p.Timeout + sim.Time(p.TimeoutPerByte*float64(n))
}

// OpError reports a blocking operation whose retry budget was exhausted.
// The simulation is still consistent: the operation may or may not have
// been applied remotely (exactly the ambiguity a real exhausted retry
// leaves), but dedup guarantees it was applied at most once.
type OpError struct {
	Op       string   // "put", "get", "acc", "rmw", "fence.flush"
	Target   int      // target rank
	Attempts int      // sends issued
	Elapsed  sim.Time // virtual time spent in the operation
}

func (e *OpError) Error() string {
	return fmt.Sprintf("armci: %s to rank %d failed after %d attempts over %s",
		e.Op, e.Target, e.Attempts, sim.FormatTime(e.Elapsed))
}

// ftObs caches the fault-tolerance instrumentation handles; nil when the
// run has no registry, and every method is nil-safe.
type ftObs struct {
	cRetry     *obs.Counter
	cTimeout   *obs.Counter
	cExhausted *obs.Counter
	cSuspect   *obs.Counter
	hRecovery  *obs.Histogram // first timeout -> eventual completion
}

func newFtObs(r *obs.Registry) *ftObs {
	if r == nil {
		return nil
	}
	return &ftObs{
		cRetry:     r.Counter("armci/ft.retries"),
		cTimeout:   r.Counter("armci/ft.timeouts"),
		cExhausted: r.Counter("armci/ft.exhausted"),
		cSuspect:   r.Counter("armci/ft.suspect"),
		hRecovery:  r.Histogram("armci/ft.recovery_ns", obs.DefaultLatencyBounds),
	}
}

func (f *ftObs) retry() {
	if f != nil {
		f.cRetry.Add(1)
	}
}

func (f *ftObs) timeout() {
	if f != nil {
		f.cTimeout.Add(1)
	}
}

func (f *ftObs) exhausted() {
	if f != nil {
		f.cExhausted.Add(1)
	}
}

func (f *ftObs) suspect() {
	if f != nil {
		f.cSuspect.Add(1)
	}
}

func (f *ftObs) recovered(d sim.Time) {
	if f != nil {
		f.hRecovery.Observe(d)
	}
}

// rdmaSuspect reports whether rank's RDMA path is inside a suspect window.
func (rt *Runtime) rdmaSuspect(rank int) bool {
	return rt.C.Ln.Now() < rt.suspectUntil[rank]
}

// markSuspect degrades rank's RDMA path: cached region descriptors are
// purged and operations fall back to the AM protocols until the window
// expires. Called when an RDMA attempt times out — the descriptor, the
// route, or the target MU may be the casualty, and the AM path at least
// re-resolves everything per attempt.
func (rt *Runtime) markSuspect(rank int) {
	if !rt.faulty() {
		return
	}
	if rt.suspectUntil == nil {
		rt.suspectUntil = make(map[int]sim.Time)
	}
	rt.suspectUntil[rank] = rt.C.Ln.Now() + rt.retry.SuspectWindow
	rt.regions.purgeRank(rank)
	rt.Stats.Inc("rdma.suspect", 1)
	rt.ftObs.suspect()
	rt.tr("fault", "rdma.suspect", int64(rank))
}

// retryLoop drives one logical operation to completion: send, wait with a
// deadline, back off exponentially (with deterministic jitter), resend.
// comp must be the operation's single end-to-end completion, shared by
// all attempts — layers below finish it with FinishOnce, so a retry
// racing its delayed original is benign. send is invoked once per
// attempt and must re-send the SAME operation identity (pend id / rmw
// id) so the target can dedup. onTimeout, if non-nil, runs after each
// missed deadline (suspect-marking hooks in there).
func (rt *Runtime) retryLoop(th *sim.Thread, op string, target, payload int,
	comp *sim.Completion, send func(attempt int), onTimeout func(attempt int)) error {

	pol := rt.retry
	start := th.Now()
	backoff := pol.BackoffBase
	firstLoss := sim.Time(-1)
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			th.Sleep(rt.rng.Jitter(backoff, pol.BackoffJitter))
			backoff *= 2
			if backoff > pol.BackoffCap {
				backoff = pol.BackoffCap
			}
			if comp.Done() {
				// A delayed original completed during the backoff sleep.
				rt.noteRecovered(th, firstLoss)
				return nil
			}
			rt.Stats.Inc("retry", 1)
			rt.ftObs.retry()
			rt.tr("fault", op+".retry", int64(target))
		}
		send(attempt)
		deadline := th.Now() + pol.timeoutFor(payload)
		if rt.mainCtx.WaitLocalUntil(th, comp, deadline) {
			if firstLoss >= 0 {
				rt.noteRecovered(th, firstLoss)
			}
			return nil
		}
		if firstLoss < 0 {
			firstLoss = th.Now()
		}
		rt.Stats.Inc("timeout", 1)
		rt.ftObs.timeout()
		rt.tr("fault", op+".timeout", int64(target))
		if onTimeout != nil {
			onTimeout(attempt)
		}
	}
	rt.Stats.Inc("retry.exhausted", 1)
	rt.ftObs.exhausted()
	return &OpError{Op: op, Target: target, Attempts: pol.MaxAttempts, Elapsed: th.Now() - start}
}

// noteRecovered records a successful recovery and its latency (first
// missed deadline to eventual completion).
func (rt *Runtime) noteRecovered(th *sim.Thread, firstLoss sim.Time) {
	rt.Stats.Inc("recovered", 1)
	rt.ftObs.recovered(th.Now() - firstLoss)
}

// remoteRegionForFT is remoteRegionFor with a bounded wait: the region
// query is itself an AM round trip and can be lost. Two timed attempts,
// then report unresolved — the caller degrades to the AM data path, it
// never blocks an operation forever on metadata.
func (rt *Runtime) remoteRegionForFT(th *sim.Thread, rank int, addr mem.Addr, n int) bool {
	if rt.regions.lookup(rank, addr, n) {
		rt.Stats.Inc("regioncache.hit", 1)
		return true
	}
	rt.Stats.Inc("regioncache.miss", 1)
	id, p := rt.newPend()
	hdr := []int64{id, int64(addr), int64(n)}
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			rt.Stats.Inc("retry", 1)
			rt.ftObs.retry()
		}
		rt.mainCtx.SendAM(th, rt.epSvc(th, rank), dRegionQ, hdr, nil)
		if rt.mainCtx.WaitCondUntil(th, func() bool { return p.done },
			th.Now()+rt.retry.Timeout) {
			delete(rt.pend, id)
			if !p.found {
				rt.Stats.Inc("regioncache.unresolved", 1)
				return false
			}
			before := rt.regions.Evicted
			rt.regions.insert(rank, p.base, p.size)
			if rt.regions.Evicted != before {
				rt.Stats.Inc("regioncache.evict", int64(rt.regions.Evicted-before))
			}
			return true
		}
		rt.Stats.Inc("timeout", 1)
		rt.ftObs.timeout()
	}
	delete(rt.pend, id)
	rt.Stats.Inc("regioncache.unresolved", 1)
	return false
}

// putFT is the chaos-run blocking put: end-to-end, retried, degrading
// from RDMA to the AM protocol when the target is suspect.
func (rt *Runtime) putFT(th *sim.Thread, local mem.Addr, dst GlobalPtr, n int) error {
	comp := sim.NewCompletion(rt.W.K)
	amID := int64(-1)
	var data []byte
	usedRdma := false
	send := func(int) {
		if !rt.rdmaSuspect(dst.Rank) &&
			rt.localRegionFor(th, local, n) && rt.remoteRegionForFT(th, dst.Rank, dst.Addr, n) {
			usedRdma = true
			// Fault mode makes RdmaPut's completion end-to-end (posted at
			// delivery), so this wait detects a dropped data message.
			rt.mainCtx.RdmaPut(th, rt.epData(th, dst.Rank), local, dst.Addr, n, comp)
			rt.Stats.Inc("put.rdma", 1)
			rt.tr("rdma", "put.rdma", int64(n))
			return
		}
		usedRdma = false
		if data == nil {
			data = rt.C.Space.Clone(local, n)
		}
		if amID < 0 {
			var p *pendReq
			amID, p = rt.newPend()
			p.comp = comp
		}
		rt.mainCtx.SendAM(th, rt.epSvc(th, dst.Rank), dPutReq,
			[]int64{amID, int64(dst.Addr)}, data)
		rt.Stats.Inc("put.am", 1)
		rt.tr("am", "put.am", int64(n))
	}
	err := rt.retryLoop(th, "put", dst.Rank, n, comp, send, func(int) {
		if usedRdma {
			rt.markSuspect(dst.Rank)
		}
	})
	if amID >= 0 {
		delete(rt.pend, amID)
	}
	return err
}

// getFT is the chaos-run blocking get.
func (rt *Runtime) getFT(th *sim.Thread, src GlobalPtr, local mem.Addr, n int) error {
	key := rt.allocKey(src)
	rt.cons.checkRead(th, src.Rank, key)
	rt.cons.noteRead(src.Rank, key)
	comp := sim.NewCompletion(rt.W.K)
	amID := int64(-1)
	usedRdma := false
	send := func(int) {
		if !rt.rdmaSuspect(src.Rank) &&
			rt.localRegionFor(th, local, n) && rt.remoteRegionForFT(th, src.Rank, src.Addr, n) {
			usedRdma = true
			rt.mainCtx.RdmaGet(th, rt.epData(th, src.Rank), local, src.Addr, n, comp)
			rt.Stats.Inc("get.rdma", 1)
			rt.tr("rdma", "get.rdma", int64(n))
			return
		}
		usedRdma = false
		if amID < 0 {
			var p *pendReq
			amID, p = rt.newPend()
			p.comp = comp
			p.localAddr = local
		}
		rt.mainCtx.SendAM(th, rt.epSvc(th, src.Rank), dGetReq,
			[]int64{amID, int64(src.Addr), int64(n)}, nil)
		rt.Stats.Inc("get.fallback", 1)
		rt.tr("am", "get.fallback", int64(n))
	}
	err := rt.retryLoop(th, "get", src.Rank, n, comp, send, func(int) {
		if usedRdma {
			rt.markSuspect(src.Rank)
		}
	})
	if amID >= 0 {
		delete(rt.pend, amID)
	}
	return err
}

// accFT is the chaos-run blocking accumulate: always AM, exactly-once by
// (initiator, pend id) dedup at the target.
func (rt *Runtime) accFT(th *sim.Thread, local mem.Addr, dst GlobalPtr, n int, scale float64) error {
	data := rt.C.Space.Clone(local, n)
	comp := sim.NewCompletion(rt.W.K)
	id, p := rt.newPend()
	p.comp = comp
	hdr := []int64{id, int64(dst.Addr), int64(math.Float64bits(scale))}
	send := func(int) {
		rt.mainCtx.SendAM(th, rt.epSvc(th, dst.Rank), dAccReq, hdr, data)
		rt.Stats.Inc("acc", 1)
		rt.tr("am", "acc", int64(n))
	}
	err := rt.retryLoop(th, "acc", dst.Rank, n, comp, send, nil)
	delete(rt.pend, id)
	return err
}

// rmwFT is the chaos-run read-modify-write: one PAMI rmw id across all
// attempts, deduped target-side, abandoned (late replies dropped) on
// exhaustion.
func (rt *Runtime) rmwFT(th *sim.Thread, dst GlobalPtr, op pami.RmwOp, operand, compare int64) (int64, error) {
	t0 := th.Now()
	var prev int64
	comp := sim.NewCompletion(rt.W.K)
	id := rt.mainCtx.RmwBegin(&prev, comp)
	send := func(int) {
		rt.mainCtx.RmwIssue(th, rt.epSvc(th, dst.Rank), id, dst.Addr, op, operand, compare)
	}
	if err := rt.retryLoop(th, "rmw", dst.Rank, 8, comp, send, nil); err != nil {
		rt.mainCtx.RmwCancel(id)
		return 0, err
	}
	rt.Stats.Inc("rmw", 1)
	rt.tr("am", "rmw", int64(dst.Rank))
	rt.obsOp(opRmw, 8, th.Now()-t0)
	return prev, nil
}
