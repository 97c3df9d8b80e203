//go:build race

package sim

// raceEnabled reports whether the race detector is on. A kernel's lanes
// and threads are then poisoned when their world is given back
// (KeptLanes), never reused, so that a read of a world after its owner
// lent the next one fails loudly. Its instrumentation allocates, so
// allocation-count tests skip themselves.
const raceEnabled = true
