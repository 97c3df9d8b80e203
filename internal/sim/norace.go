//go:build !race

package sim

// raceEnabled reports whether the race detector is on (race.go).
const raceEnabled = false
