//go:build race

package serve

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates, so allocation-count tests skip themselves.
const raceEnabled = true
