package lbs

import (
	"repro/internal/pir"
	"repro/internal/telemetry"
)

// WithTelemetry registers this server's pool and scan-accounting series with reg, labeled by database name. Every exported quantity is a
// function of the adversary-visible workload shape — batch sizes, file
// capabilities, read counts — never of which pages were requested, so the
// metrics leak nothing the LBS could not already observe (Theorem 1).
func WithTelemetry(reg *telemetry.Registry, db string) ServerOption {
	return func(s *Server) {
		s.telReg, s.telDB = reg, db
	}
}

// initTelemetry resolves the metric handles once, after the stores exist.
// All hot-path handles are nil-safe, so a server without telemetry records
// into nil and pays one predictable branch per event.
func (s *Server) initTelemetry() {
	reg, db := s.telReg, s.telDB
	if reg == nil {
		return
	}
	dbl := telemetry.L("db", db)
	workers := s.pool.size()
	reg.GaugeFunc("privsp_pool_workers",
		"size of the per-database PIR worker pool",
		func() float64 { return float64(workers) }, dbl)
	reg.GaugeFunc("privsp_pool_busy",
		"worker-pool slots held right now (one per store call, whatever its scan width)",
		func() float64 { busy, _ := s.pool.stats(); return float64(busy) }, dbl)
	reg.GaugeFunc("privsp_pool_queued",
		"fetch and share batches waiting for a pool slot",
		func() float64 { _, queued := s.pool.stats(); return float64(queued) }, dbl)
	s.pool.wait = reg.Histogram("privsp_pool_wait_seconds",
		"time a batch spent waiting for a pool slot (0 when a slot was free)",
		telemetry.Seconds(), dbl)

	for _, f := range s.db.Files {
		ss, ok := s.stores[f.Name()].store.(pir.ScanStats)
		if !ok {
			continue
		}
		fl := telemetry.L("file", f.Name())
		reg.CounterFunc("privsp_pir_pages_scanned_total",
			"pages-equivalent server work performed by the PIR store (scan amortization numerator)",
			func() uint64 { p, _ := ss.ScanStats(); return p }, dbl, fl)
		reg.CounterFunc("privsp_pir_scans_total",
			"server passes performed by the PIR store",
			func() uint64 { _, n := ss.ScanStats(); return n }, dbl, fl)
	}
}
