package pami

import "repro/internal/mem"

// flightBatch is how many flights a lane takes from its shelf or gives
// back at once.
const flightBatch = 16

// Shelf is what the worlds of one owner recycle, one world at a time:
// active-message, put and get flights, and payload buffers. A world's
// lanes hold the shelf's lists while it runs (hold); at its end, every
// lane's lists go back to the shelf's stocks (Machine.Shelve), so the next
// world starts on what this one made. The sweep engine keeps one shelf
// per task it runs at once (armci.Config.Shelf), so recycling outlives a
// world and a collection alike: a run's allocation count is a function of
// its config and of the runs its owner ran before, never of GC history.
// A machine built without a shelf makes a private one that dies with it.
//
// Only a healthy run recycles: under an injector a delivery can fire twice
// or never, so such a run takes no flight from the shelf (flight) and
// gives none of its payloads back; all of them go to the collector.
type Shelf struct {
	am   mem.Stock[amFlight]
	put  mem.Stock[putFlight]
	get  mem.Stock[getFlight]
	bufs mem.Stocks
	// lanes are the lane holders, reused by every world lent the shelf: a
	// world costs them nothing once one as wide has run. The last world
	// lent it used the first used of them.
	lanes []hold
	used  int
}

// NewShelf returns an empty shelf.
func NewShelf() *Shelf {
	s := new(Shelf)
	s.am.Init(flightBatch, true)
	s.put.Init(flightBatch, true)
	s.get.Init(flightBatch, true)
	s.bufs.Init()
	return s
}

// hold is what one lane of a running world holds: a free list per flight
// kind and per payload class. It takes no lock, because only the lane's
// own events use it. A flight or payload is released on the lane whose
// event finishes with it, which may not be the lane that took it, so a
// list that runs dry refills from the shelf and one that grows gives a
// batch back.
type hold struct {
	am   mem.Free[amFlight]
	put  mem.Free[putFlight]
	get  mem.Free[getFlight]
	bufs mem.Classes
}

// lend returns the holders of a world of n lanes. A world that ended
// without Shelve left its lists on its lanes: they go back first.
func (s *Shelf) lend(n int) []hold {
	s.settle()
	if n > len(s.lanes) {
		lanes := make([]hold, n)
		copy(lanes, s.lanes)
		for i := len(s.lanes); i < n; i++ {
			h := &lanes[i]
			h.am.Link(&s.am)
			h.put.Link(&s.put)
			h.get.Link(&s.get)
			h.bufs.Link(&s.bufs)
		}
		s.lanes = lanes
	}
	s.used = n
	return s.lanes[:n]
}

// settle ends the last world's use of the shelf. Every flight the shelf
// has made is free again, those still in flight when the world stopped
// included: it has ended. Every payload buffer a lane holds goes back to the stocks,
// which drop the classes above mem.KeepMax.
func (s *Shelf) settle() {
	for i := range s.lanes[:s.used] {
		h := &s.lanes[i]
		h.am.Drop()
		h.put.Drop()
		h.get.Drop()
		h.bufs.Flush()
	}
	s.am.Reclaim()
	s.put.Reclaim()
	s.get.Reclaim()
	s.bufs.Trim()
}

// Shelve ends the machine's use of its shelf: every lane's lists go back
// to it. The machine must not run again.
func (m *Machine) Shelve() {
	m.shelf.settle()
	m.holds = nil
}

// hold returns what the client's lane holds.
func (c *Client) hold() *hold { return &c.M.holds[c.Ln.Index()] }

// flight returns a free flight from the client's list l. Under an injector
// it makes a new one instead: such a run gives no flight back, and one cut
// from the shelf's chunks would be kept as long as the shelf is.
func flight[T any](c *Client, l *mem.Free[T]) *T {
	if c.M.faulty() {
		return new(T)
	}
	return l.Get()
}

// Bufs returns the payload classes of the client's lane: where the rank's
// active-message payloads come from (Borrow, Buf). pami hands each back
// once its handler has run.
func (c *Client) Bufs() *mem.Classes { return &c.hold().bufs }
