//go:build !race

package scheme_test

// raceEnabled reports that the race detector is active: its instrumentation
// allocates and sync.Pool drops objects at random under it, so the
// allocation guard skips itself.
const raceEnabled = false
