//go:build !race

package pami

// raceEnabled reports whether the race detector is on (race.go).
const raceEnabled = false
