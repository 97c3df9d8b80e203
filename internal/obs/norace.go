//go:build !race

package obs

// raceEnabled reports whether the race detector is on (race.go).
const raceEnabled = false
