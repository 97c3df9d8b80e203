//go:build race

package nwchem

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates, and armci retires operation slots instead of
// reusing them under it, so allocation-count tests skip themselves.
const raceEnabled = true
