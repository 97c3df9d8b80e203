//go:build race

package obs

// raceEnabled reports whether the race detector is on. A registry passed
// to Merge is then retired, and creating a handle on it, attaching to it
// or registering a family on it panics (Registry.checkLive). The
// detector's instrumentation allocates, so allocation-count tests skip
// themselves.
const raceEnabled = true
