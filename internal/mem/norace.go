//go:build !race

package mem

// raceEnabled reports whether the race detector is on (race.go).
const raceEnabled = false
