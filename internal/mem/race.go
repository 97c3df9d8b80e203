//go:build race

package mem

// raceEnabled reports whether the race detector is on. Return then
// poisons every buffer it takes back, so that `go test -race` catches a
// reader that outlives a recycled payload by the bytes it reads. Its
// instrumentation allocates, so allocation-count tests skip themselves.
const raceEnabled = true
