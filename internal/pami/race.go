//go:build race

package pami

// raceEnabled reports whether the race detector is on. A shelf then
// poisons the clients and contexts of a world it is given back and drops
// them (Shelf.GiveBack). Its instrumentation allocates, so
// allocation-count tests skip themselves.
const raceEnabled = true
