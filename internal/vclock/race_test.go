//go:build race

package vclock

// raceEnabled reports whether the test binary carries the race
// detector, whose instrumentation allocates.
const raceEnabled = true
