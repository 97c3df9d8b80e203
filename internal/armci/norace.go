//go:build !race

package armci

// raceEnabled reports whether the race detector is on (race.go).
const raceEnabled = false
