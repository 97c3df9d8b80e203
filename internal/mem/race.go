//go:build race

package mem

// raceEnabled reports whether the race detector is on. Return then
// poisons every buffer it pools, so that `go test -race` catches a reader
// that outlives a recycled payload by the bytes it reads. Its
// instrumentation allocates, and sync.Pool drops a share of what it is
// given under it, so allocation-count tests skip themselves.
const raceEnabled = true
