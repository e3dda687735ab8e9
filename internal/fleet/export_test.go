package fleet

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// SetProbeInterval sets the health-prober period of the fleets dialed from
// now on, and restores it when t ends.
func SetProbeInterval(t testing.TB, d time.Duration) {
	old := probeInterval
	probeInterval = d
	t.Cleanup(func() { probeInterval = old })
}

// SetRegistry makes the fleets dialed from now on record their families in
// reg, and restores the registry when t ends.
func SetRegistry(t testing.TB, reg *telemetry.Registry) {
	old := registry
	registry = reg
	t.Cleanup(func() { registry = old })
}
