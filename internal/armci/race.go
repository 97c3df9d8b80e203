//go:build race

package armci

// raceEnabled reports whether the race detector is on. releaseSlot then
// retires every operation slot instead of reusing it, so that `go test
// -race` catches a reference that outlives its operation: finishing a
// retired completion panics. Allocation-count tests skip themselves.
const raceEnabled = true
