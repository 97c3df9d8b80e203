package pami

import "slices"

// Dedup is a target's memory of the at-least-once requests it applied,
// bounded per source by what the source still has outstanding, never by
// the traffic it served: the paper sizes a rank's state by its clique
// (§III.B). A source numbers its requests with a sequence of its own and
// sends, with each, its low-water mark — the lowest id it still waits on.
// An id below a mark is over at the source (answered, or abandoned when
// its retry budget ran out), so a copy of it that arrives late is a
// duplicate, and the target keeps only the ids at or above the highest
// mark each source sent. ARMCI's write AMs and PAMI's read-modify-writes
// use it on chaos runs. The zero value is empty.
type Dedup struct{ srcs map[int]*window }

// window is one source's part: its highest mark and the ids at or above
// it that were applied, each with its value.
type window struct {
	mark int64
	ids  []applied
}

type applied struct{ id, v int64 }

// Seen reports whether request id from src, sent with low-water mark
// mark, was applied before or is below a mark, and returns the value
// recorded with it (0 below the mark). Record notes a new one once applied.
func (d *Dedup) Seen(src int, id, mark int64) (v int64, seen bool) {
	w := d.window(src)
	if mark > w.mark {
		w.mark = mark
		w.ids = slices.DeleteFunc(w.ids, func(a applied) bool { return a.id < mark })
	}
	if id < w.mark {
		return 0, true
	}
	for _, a := range w.ids {
		if a.id == id {
			return a.v, true
		}
	}
	return 0, false
}

// Record notes request id from src as applied, with value v (an rmw's
// prior value, which answers a duplicate).
func (d *Dedup) Record(src int, id, v int64) {
	w := d.window(src)
	w.ids = append(w.ids, applied{id, v})
}

func (d *Dedup) window(src int) *window {
	w := d.srcs[src]
	if w == nil {
		if d.srcs == nil {
			d.srcs = make(map[int]*window)
		}
		w = new(window)
		d.srcs[src] = w
	}
	return w
}

// Reset empties d, whose world has ended, in place: a source's window
// keeps its room for the next world.
func (d *Dedup) Reset() {
	for _, w := range d.srcs {
		w.mark, w.ids = 0, w.ids[:0]
	}
}

// Widest returns the most ids d holds for any one source.
func (d *Dedup) Widest() int {
	most := 0
	for _, w := range d.srcs {
		most = max(most, len(w.ids))
	}
	return most
}
