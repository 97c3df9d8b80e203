//go:build race

package obs

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates, so allocation-count tests skip themselves.
const raceEnabled = true
