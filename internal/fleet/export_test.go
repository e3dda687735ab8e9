package fleet

import (
	"testing"
	"time"
)

// SetProbeInterval sets the health-prober period of the fleets dialed from
// now on, and restores it when t ends.
func SetProbeInterval(t testing.TB, d time.Duration) {
	old := probeInterval
	probeInterval = d
	t.Cleanup(func() { probeInterval = old })
}
