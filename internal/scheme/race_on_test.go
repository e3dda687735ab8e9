//go:build race

package scheme_test

// raceEnabled reports that the race detector is active: its instrumentation
// allocates, so the allocation guard skips itself.
const raceEnabled = true
