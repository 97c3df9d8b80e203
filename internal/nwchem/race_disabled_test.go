//go:build !race

package nwchem

// raceEnabled reports whether the race detector is on (race_enabled_test.go).
const raceEnabled = false
