//go:build race

package mem

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates, and sync.Pool drops a share of what it is
// given under it, so allocation-count tests skip themselves.
const raceEnabled = true
