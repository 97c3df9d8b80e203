// Package sim implements a deterministic discrete-event simulation
// kernel. Simulated threads are coroutines (iter.Pull) that run one at a
// time under control of the kernel; virtual time only advances when every
// thread is blocked. All scheduling is totally ordered by (time, sequence),
// so a simulation with a fixed seed replays bit-identically.
package sim

import "fmt"

// Time is virtual time in nanoseconds.
type Time = int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// Micros converts a floating-point microsecond count to virtual time.
func Micros(us float64) Time { return Time(us * 1e3) }

// ToMicros converts virtual time to floating-point microseconds.
func ToMicros(t Time) float64 { return float64(t) / 1e3 }

// ToMillis converts virtual time to floating-point milliseconds.
func ToMillis(t Time) float64 { return float64(t) / 1e6 }

// ToSeconds converts virtual time to floating-point seconds.
func ToSeconds(t Time) float64 { return float64(t) / 1e9 }

// FormatTime renders a virtual time with an adaptive unit, for logs.
func FormatTime(t Time) string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", t)
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", ToMicros(t))
	case t < Second:
		return fmt.Sprintf("%.2fms", ToMillis(t))
	default:
		return fmt.Sprintf("%.3fs", ToSeconds(t))
	}
}
