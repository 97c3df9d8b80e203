package armci

import (
	"fmt"

	"repro/internal/pami"
	"repro/internal/sim"
)

// This file is the recovery half of the fault-injection subsystem: the
// retry policy and attempt, the one loop every blocking operation waits
// in. Chaos runs (Config.Fault != nil) have no protocols of their own: an
// operation is issued by the same function either way (issuePut,
// issueGet, issueAcc, RmwIssue, FlushRemote), and attempt calls it again
// after a missed deadline.
//
// Recovery semantics, and their limits:
//
//   - Blocking *Err operations are end-to-end on chaos runs: a put or
//     accumulate returns only once it is remotely applied, a get once the
//     data landed, an rmw once the reply arrived. They therefore leave no
//     unflushed/unacked fence state behind.
//   - Every logical operation keeps one identity across retries — the AM
//     pend id (xfer.id) or the PAMI rmw id is allocated once and re-sent —
//     so the target can dedup at-least-once deliveries. Non-idempotent ops
//     (accumulate, rmw) are applied exactly once; puts and gets are
//     byte-idempotent anyway.
//   - An RDMA attempt that times out marks the target's RDMA path
//     suspect: its region-cache entries are purged and operations degrade
//     to the AM protocols until the suspect window expires (§III.C.1's
//     fallback, reused as the graceful-degradation path).
//   - Non-blocking (Nb*) and strided operations are issued once and NOT
//     fault-hardened: they share the bounded region query and the suspect
//     check, but their completions may simply never fire if a data
//     message is dropped. Chaos workloads must use the blocking *Err forms.

// retryPolicy is how a chaos run waits for and re-sends an operation.
type retryPolicy struct {
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

// defaultRetry is the calibrated chaos-run policy, shared read-only. The
// total retry budget (sum of timeouts and capped backoffs, ~4 ms for
// control ops) is what a fault plan's dead windows must stay under for
// the workload to ride through them.
var defaultRetry = retryPolicy{
	MaxAttempts:    8,
	Timeout:        60 * sim.Microsecond,
	TimeoutPerByte: 1.5,
	BackoffBase:    25 * sim.Microsecond,
	BackoffCap:     2 * sim.Millisecond,
	BackoffJitter:  0.25,
	SuspectWindow:  10 * sim.Millisecond,
}

// timeoutFor returns the per-attempt deadline for a payload of n bytes.
func (p *retryPolicy) timeoutFor(n int) sim.Time {
	return p.Timeout + sim.Time(p.TimeoutPerByte*float64(n))
}

// deadline is when a bounded wait that starts now gives up: after one
// attempt's timeout, or the whole budget's. A healthy run has no policy
// and loses no message, so its waits have none.
func (rt *Runtime) deadline(th *sim.Thread, budget bool) sim.Time {
	p := rt.retry
	if p == nil {
		return pami.NoDeadline
	}
	if budget {
		return th.Now() + p.Timeout*sim.Time(p.MaxAttempts)
	}
	return th.Now() + p.Timeout
}

// retried names a retried operation and its trace events, once per process.
type retried struct{ op, retry, timeout string }

func retriedOp(op string) *retried { return &retried{op, op + ".retry", op + ".timeout"} }

var (
	putOp   = retriedOp("put")
	getOp   = retriedOp("get")
	accOp   = retriedOp("acc")
	rmwOp   = retriedOp("rmw")
	flushOp = retriedOp("fence.flush")
)

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

// rdmaSuspect reports whether the RDMA path to the peer at position pos is
// inside a suspect window (never before one is marked: records start at 0).
func (rt *Runtime) rdmaSuspect(pos int) bool {
	return rt.C.Ln.Now() < rt.peers.at(pos).suspect
}

// markSuspect degrades the RDMA path to the peer at position pos: its
// cached region descriptors are purged and operations fall back to the AM
// protocols until the window expires. Called when an RDMA attempt times
// out — the descriptor, the route, or the target MU may be the casualty,
// and the AM path at least re-resolves everything per attempt.
func (rt *Runtime) markSuspect(pos int) {
	p := rt.peers.at(pos)
	p.suspect = rt.C.Ln.Now() + rt.retry.SuspectWindow
	rt.cache().purgeRank(pos)
	rt.Stats[statRdmaSuspect]++
	rt.tr("fault", "rdma.suspect", int64(p.rank))
}

// attempt drives one logical operation to completion. Without an injector
// that is send, then wait. With one: send, wait with a deadline, back off
// exponentially (with deterministic jitter), resend. comp must be the
// operation's single end-to-end completion, shared by all attempts —
// layers below finish it with FinishOnce, so a retry racing its delayed
// original is benign. send is invoked once per attempt and must re-send
// the SAME operation identity (pend id / rmw id) so the target can dedup.
// onTimeout, if non-nil, runs after each missed deadline (suspect-marking
// hooks in there). Neither function is kept: callers' closures stay on
// their stacks.
func (rt *Runtime) attempt(th *sim.Thread, op *retried, target, payload int,
	comp *sim.Completion, send, onTimeout func()) error {

	if !rt.faulty() {
		send()
		rt.mainCtx.WaitLocal(th, comp)
		return nil
	}
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
			rt.Stats[statRetry]++
			rt.tr("fault", op.retry, int64(target))
		}
		send()
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
		rt.Stats[statTimeout]++
		rt.tr("fault", op.timeout, int64(target))
		if onTimeout != nil {
			onTimeout()
		}
	}
	rt.Stats[statRetryExhausted]++
	return &OpError{Op: op.op, Target: target, Attempts: pol.MaxAttempts, Elapsed: th.Now() - start}
}

// noteRecovered records a successful recovery and its latency (first
// missed deadline to eventual completion).
func (rt *Runtime) noteRecovered(th *sim.Thread, firstLoss sim.Time) {
	rt.Stats[statRecovered]++
	rt.obsRecovery(th.Now() - firstLoss)
}
