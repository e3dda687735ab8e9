package fleet

import "repro/internal/telemetry"

// fleetMetrics are the fan-out client's families — the "fleet"-scoped
// lines of docs/metrics.catalog, enforced by TestFleetMetricsCatalog the
// same way cmd/privspd's TestMetricsCatalog enforces the daemon lines.
//
// Everything is registered eagerly at Dial time, per replica address, for
// the same reason the daemon registers eagerly at Host time: series that
// appear on first use leak when the first use happened. A scrape of a
// freshly dialed fleet already shows every series at zero.
type fleetMetrics struct {
	replicaUp     map[string]*telemetry.Gauge   // by replica address
	replicaErrors map[string]*telemetry.Counter // by replica address
	fanout        *telemetry.Histogram
	queriesPaired *telemetry.Counter
	probeOK       *telemetry.Counter
	probeFail     *telemetry.Counter
}

func (f *Fleet) initTelemetry(addrs []string) {
	reg := registry
	f.m.replicaUp = make(map[string]*telemetry.Gauge, len(addrs))
	f.m.replicaErrors = make(map[string]*telemetry.Counter, len(addrs))
	for _, addr := range addrs {
		rl := telemetry.L("replica", addr)
		f.m.replicaUp[addr] = reg.Gauge("privsp_fleet_replica_up",
			"1 while the replica's circuit breaker is closed, 0 while open", rl)
		f.m.replicaErrors[addr] = reg.Counter("privsp_fleet_replica_errors_total",
			"transport failures attributed to the replica (each trips its breaker)", rl)
	}
	f.m.fanout = reg.Histogram("privsp_fleet_fanout_seconds",
		"wall time of one paired share fan-out: slower replica's scan plus transfer",
		telemetry.Seconds())
	f.m.queriesPaired = reg.Counter("privsp_fleet_queries_total",
		"queries started, by fan-out mode", telemetry.L("mode", "paired"))
	f.m.probeOK = reg.Counter("privsp_fleet_probes_total",
		"health-prober attempts by result", telemetry.L("result", "ok"))
	f.m.probeFail = reg.Counter("privsp_fleet_probes_total",
		"health-prober attempts by result", telemetry.L("result", "fail"))
}
