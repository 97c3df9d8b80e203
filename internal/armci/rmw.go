package armci

import (
	"repro/internal/pami"
	"repro/internal/sim"
)

// Read-modify-write operations target an int64 in remote memory. On BG/Q
// these have no network-hardware support, so every call is an
// active-message round trip serviced by the target's progress engine —
// without an asynchronous progress thread, by the target's main thread
// whenever it happens to enter ARMCI (§III.D). These are the primitives
// behind NWChem's load-balance counters.

// rmw performs one AMO and returns the prior value. The PAMI rmw id is
// allocated once and every attempt re-sends it, so on a chaos run the
// target applies a retried operation exactly once; an exhausted budget
// abandons the id, and a late reply finds nothing to complete. The
// completion and the prior value live in PAMI's recycled pending slot.
func (rt *Runtime) rmw(th *sim.Thread, dst GlobalPtr, op pami.RmwOp, operand, compare int64) (int64, error) {
	t0 := th.Now()
	id, comp := rt.mainCtx.RmwBegin()
	err := rt.attempt(th, rmwOp, dst.Rank, 8, comp, func() {
		rt.mainCtx.RmwIssue(th, rt.endpoint(th, rt.peers.record(dst.Rank), true), id, dst.Addr, op, operand, compare)
	}, nil)
	prev := rt.mainCtx.RmwEnd(id)
	if err != nil {
		return 0, err
	}
	rt.Stats[statRmw]++
	rt.tr("am", "rmw", int64(dst.Rank))
	rt.obsOp(opRmw, 8, th.Now()-t0)
	return prev, nil
}

// FetchAdd atomically adds delta to the remote counter, returning the
// prior value (ARMCI_Rmw ARMCI_FETCH_AND_ADD_LONG). On chaos runs an
// exhausted retry budget panics; use FetchAddErr to handle it.
func (rt *Runtime) FetchAdd(th *sim.Thread, dst GlobalPtr, delta int64) int64 {
	prev, err := rt.FetchAddErr(th, dst, delta)
	if err != nil {
		panic(err)
	}
	return prev
}

// FetchAddErr is the error-returning fetch-and-add: on chaos runs it is
// retried under the configured retryPolicy and applied exactly once.
func (rt *Runtime) FetchAddErr(th *sim.Thread, dst GlobalPtr, delta int64) (int64, error) {
	return rt.rmw(th, dst, pami.FetchAdd, delta, 0)
}

// SwapLong atomically replaces the remote value, returning the prior one.
// On chaos runs an exhausted retry budget panics; use SwapLongErr.
func (rt *Runtime) SwapLong(th *sim.Thread, dst GlobalPtr, value int64) int64 {
	prev, err := rt.SwapLongErr(th, dst, value)
	if err != nil {
		panic(err)
	}
	return prev
}

// SwapLongErr is the error-returning atomic swap (see FetchAddErr).
func (rt *Runtime) SwapLongErr(th *sim.Thread, dst GlobalPtr, value int64) (int64, error) {
	return rt.rmw(th, dst, pami.Swap, value, 0)
}

// CompareSwap replaces the remote value with update only if it currently
// equals expect; either way the prior value is returned. On chaos runs
// an exhausted retry budget panics; use CompareSwapErr.
func (rt *Runtime) CompareSwap(th *sim.Thread, dst GlobalPtr, expect, update int64) int64 {
	prev, err := rt.CompareSwapErr(th, dst, expect, update)
	if err != nil {
		panic(err)
	}
	return prev
}

// CompareSwapErr is the error-returning compare-and-swap (see
// FetchAddErr).
func (rt *Runtime) CompareSwapErr(th *sim.Thread, dst GlobalPtr, expect, update int64) (int64, error) {
	return rt.rmw(th, dst, pami.CompareSwap, update, expect)
}
