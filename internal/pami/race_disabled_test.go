//go:build !race

package pami

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates, so allocation-count tests skip themselves.
const raceEnabled = false
