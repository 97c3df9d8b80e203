//go:build race

package bench

// raceEnabled reports whether the race detector is on; armci then retires
// operation slots instead of reusing them, so object-count tests skip
// themselves (make check runs them without it).
const raceEnabled = true
