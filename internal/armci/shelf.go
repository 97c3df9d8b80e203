package armci

import (
	"repro/internal/pami"
	"repro/internal/sim"
)

// Shelf is what the worlds of one owner are built from, one world at a
// time: the runtimes and the collective exchange buffer, kept here, and
// everything below them, kept by the embedded pami.Shelf — clients,
// contexts, spaces, lanes, threads, flights, payload buffers, the torus.
// A world stays readable until its shelf lends the next one; then each
// layer gives back what the world used, reset in place so that only what
// it grew survives (Runtime.reset and the layers' own resets), and only
// the elements it used are touched: a small world after a large one pays
// for its own. A world whose kernel did not finish gives nothing back, and
// under the race detector what a world used is poisoned and dropped. The
// sweep engine keeps one shelf per task it runs at once (sweep.Ctx.Cfg).
type Shelf struct {
	*pami.Shelf
	runtimes []Runtime
	xch      []float64
	w        *World // the last world lent the shelf, until GiveBack
}

// NewShelf returns an empty shelf.
func NewShelf() *Shelf { return &Shelf{Shelf: pami.NewShelf()} }

// lend gives the last world back and lends w its runtimes and exchange
// buffer, as many as it has ranks.
func (s *Shelf) lend(w *World) {
	s.GiveBack()
	s.w = w
	p := w.Cfg.Procs
	if p > len(s.runtimes) {
		s.runtimes, s.xch = make([]Runtime, p), make([]float64, p)
	}
	w.Runtimes, w.xchF64 = s.runtimes[:p], s.xch[:p]
}

// GiveBack ends the last world lent the shelf, as lending the next one
// does first: its runtimes are reset and its part of the exchange buffer
// cleared, then every layer below gives back what the world used
// (pami.Shelf.GiveBack, sim.KeptLanes.GiveBack). An owner that will run
// no world for a while may call it to let the last one go. A no-op when
// no world holds the shelf.
func (s *Shelf) GiveBack() {
	w := s.w
	if w == nil {
		return
	}
	s.w = nil
	clear(w.xchF64)
	switch {
	case !w.K.Finished():
		s.runtimes = nil
	case raceEnabled:
		for i := range w.Runtimes {
			w.Runtimes[i] = Runtime{Rank: -1}
		}
		s.runtimes = nil
	default:
		for i := range w.Runtimes {
			w.Runtimes[i].reset()
		}
	}
	s.Shelf.GiveBack()
	s.Lanes().GiveBack()
}

// reset empties the runtime, whose world has ended, for its rank's next
// world, in place. What survives is the room its tables grew — the clique
// table's records, index, status matrix and bucket slab, the region
// cache's block list, the allocation list, the pending-request table, the
// implicit-handle list, the write dedup's windows — and its free
// pending-request and operation slots, each cleared. A slot still held by
// an operation when the world ended (a vector operation's, one never
// waited on) is left to the collector.
func (rt *Runtime) reset() {
	rt.peers.reset()
	clear(rt.regions.blocks)
	clear(rt.allocs)
	free := rt.pendFree
	if rt.pendSeq > 0 {
		for i, p := range rt.pend {
			if p != nil {
				*p = pendReq{next: free}
				free, rt.pend[i] = p, nil
			}
		}
	}
	for s := rt.slotFree; s != nil; s = s.next {
		s.comp, s.set, s.comps = sim.Completion{}, pami.OpSet{}, nil
	}
	clear(rt.implicit)
	rt.applied.Reset()
	*rt = Runtime{
		peers:     rt.peers,
		regions:   regionCache{blocks: rt.regions.blocks[:0]},
		allocs:    rt.allocs[:0],
		pend:      rt.pend,
		pendFree:  free,
		pendChunk: rt.pendChunk,
		slotFree:  rt.slotFree,
		slotChunk: rt.slotChunk,
		implicit:  rt.implicit[:0],
		applied:   rt.applied,
	}
}
