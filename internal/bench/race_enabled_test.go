//go:build race

package bench

// raceEnabled reports whether the race detector is on; sync.Pool drops a
// share of what it is given under it, so object-count tests skip
// themselves (make check runs them without it).
const raceEnabled = true
