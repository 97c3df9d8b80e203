package armci

import (
	"fmt"

	"repro/internal/pami"
	"repro/internal/sim"
)

// ARMCI global mutexes: n mutexes distributed round-robin over the ranks
// (mutex i lives on rank i mod p). Lock/unlock are active-message
// protocols queued and granted by the owner's progress engine, so they
// share the fate of every non-RDMA operation: an owner that never
// progresses starves its lock holders.

// muState is owner-side state for one hosted mutex.
type muState struct {
	held  bool
	queue sim.FIFO[lockWaiter]
}

// lockWaiter is one blocked locker: its reply address and request id.
type lockWaiter struct {
	ep pami.Endpoint
	id int64
}

// nmutexes set by CreateMutexes; guards Lock/Unlock argument checks.
func (rt *Runtime) muOwner(idx int) int { return idx % rt.W.Cfg.Procs }

// CreateMutexes collectively creates n global mutexes. Every rank must
// call it with the same n before any Lock.
func (rt *Runtime) CreateMutexes(th *sim.Thread, n int) {
	for i := 0; i < n; i++ {
		if rt.muOwner(i) == rt.Rank {
			if rt.mutexes == nil {
				rt.mutexes = make(map[int]*muState)
			}
			rt.mutexes[i] = &muState{}
		}
	}
	rt.Barrier(th)
}

// DestroyMutexes collectively destroys all mutexes; none may be held.
func (rt *Runtime) DestroyMutexes(th *sim.Thread) {
	rt.Barrier(th)
	for i, m := range rt.mutexes {
		if m.held {
			panic(fmt.Sprintf("armci: destroying held mutex %d", i))
		}
		delete(rt.mutexes, i)
	}
	rt.Barrier(th)
}

// Lock acquires global mutex idx, blocking (while driving the progress
// engine) until the owner grants it.
func (rt *Runtime) Lock(th *sim.Thread, idx int) {
	id, p := rt.newPend()
	s := rt.takeSlot()
	p.comp = &s.comp
	rt.mainCtx.SendAM(th, rt.epSvc(th, rt.muOwner(idx)), dLockReq,
		[]int64{id, int64(idx)}, nil)
	rt.mainCtx.WaitLocal(th, &s.comp)
	rt.releaseSlot(s)
	rt.Stats[statMutexLock]++
}

// Unlock releases global mutex idx; the owner grants it to the oldest
// waiter, if any.
func (rt *Runtime) Unlock(th *sim.Thread, idx int) {
	rt.mainCtx.SendAM(th, rt.epSvc(th, rt.muOwner(idx)), dUnlockReq,
		[]int64{int64(idx)}, nil)
	rt.Stats[statMutexUnlock]++
}

func (rt *Runtime) handleLockReq(th *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	id, idx := msg.Hdr[0], int(msg.Hdr[1])
	m, ok := rt.mutexes[idx]
	if !ok {
		panic(fmt.Sprintf("armci: rank %d does not own mutex %d", rt.Rank, idx))
	}
	if !m.held {
		m.held = true
		x.SendAM(th, msg.Src, dLockRep, []int64{id}, nil)
		return
	}
	m.queue.Push(lockWaiter{ep: msg.Src, id: id})
}

func (rt *Runtime) handleLockRep(_ *sim.Thread, _ *pami.Context, msg *pami.AMessage) {
	p, ok := rt.dropPend(msg.Hdr[0])
	if !ok {
		return // duplicate grant (fault mode only)
	}
	p.comp.FinishOnce()
}

func (rt *Runtime) handleUnlockReq(th *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	idx := int(msg.Hdr[0])
	m := rt.mutexes[idx]
	if !m.held {
		panic(fmt.Sprintf("armci: unlock of free mutex %d", idx))
	}
	if m.queue.Len() == 0 {
		m.held = false
		return
	}
	next := m.queue.Pop()
	x.SendAM(th, next.ep, dLockRep, []int64{next.id}, nil)
}
