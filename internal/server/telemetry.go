package server

import (
	"repro/internal/lbs"
	"repro/internal/telemetry"
)

// serverMetrics are the daemon-wide series: connection and wire-transport
// accounting shared by every hosted database. All handles are nil-safe, so
// code paths record unconditionally.
type serverMetrics struct {
	connsActive   *telemetry.Gauge
	connsTotal    *telemetry.Counter
	framesRead    *telemetry.Counter
	framesWritten *telemetry.Counter
	bytesRead     *telemetry.Counter
	bytesWritten  *telemetry.Counter
	shed          *telemetry.Counter
	busySent      *telemetry.Counter
}

// initTelemetry registers the daemon-wide series. Everything exported here
// is connection- and frame-shape accounting the network adversary already
// observes; nothing depends on query contents (Theorem 1).
func (s *Server) initTelemetry() {
	reg := s.tel
	s.m = serverMetrics{
		connsActive: reg.Gauge("privsp_server_connections_active",
			"client connections open right now"),
		connsTotal: reg.Counter("privsp_server_connections_total",
			"client connections accepted since start"),
		framesRead: reg.Counter("privsp_server_frames_read_total",
			"wire frames received from clients"),
		framesWritten: reg.Counter("privsp_server_frames_written_total",
			"wire frames sent to clients"),
		bytesRead: reg.Counter("privsp_server_bytes_read_total",
			"wire bytes received from clients, including frame headers"),
		bytesWritten: reg.Counter("privsp_server_bytes_written_total",
			"wire bytes sent to clients, including frame headers"),
		// Overload accounting is daemon-wide, not per-database: the shed
		// decision happens before any query content (including the target
		// database's workload) could influence it.
		shed: reg.Counter("privsp_shed_total",
			"queries shed at admission because the in-flight budget was full"),
		busySent: reg.Counter("privsp_busy_sent_total",
			"Busy frames sent to shed clients (shed minus dead-connection write failures)"),
	}
}

// hostedMetrics are one database's serving series. Counters and exact
// histograms reflect only the adversary-visible trace — query/round/fetch
// counts and batch shapes, never page indices or coordinates — and the
// timing histograms add nothing beyond wall-clock durations, the one channel
// Theorem 1 explicitly leaves outside the trace-indistinguishability
// guarantee.
type hostedMetrics struct {
	queries        *telemetry.Counter
	pages          *telemetry.Counter
	rounds         *telemetry.Counter
	inflight       *telemetry.Gauge
	cancelCtx      *telemetry.Counter
	cancelDeadline *telemetry.Counter
	cancelAbandon  *telemetry.Counter
	cancelServer   *telemetry.Counter
	shareFetches   *telemetry.Counter
	queryLat       *telemetry.Histogram
	batchSize      *telemetry.Histogram
	scanLat        *telemetry.Histogram
	encodeLat      *telemetry.Histogram
}

// newHosted builds the hosted record for one database and resolves its
// metric handles, labeled by database name. Registering at host time (not
// first use) means a scrape sees the full catalog from startup, with zero
// values — absence of a series never becomes a side channel.
func (s *Server) newHosted(name string, lsrv *lbs.Server) *hosted {
	// A conforming query sends its plan's requests and its EndQuery: at
	// most that many frames are in flight when a client pipelines them all.
	h := &hosted{name: name, srv: lsrv, limit: traceHistory, inbox: 1 + lsrv.Database().Plan.Requests()}
	reg := s.tel
	if reg == nil {
		return h
	}
	dbl := telemetry.L("db", name)
	cancelHelp := "queries aborted before EndQuery, by cancellation reason"
	h.m = hostedMetrics{
		queries: reg.Counter("privsp_server_queries_total",
			"completed queries", dbl),
		pages: reg.Counter("privsp_server_pages_served_total",
			"PIR pages served to completed queries", dbl),
		rounds: reg.Counter("privsp_server_rounds_total",
			"protocol rounds announced by clients", dbl),
		inflight: reg.Gauge("privsp_server_queries_inflight",
			"queries open right now", dbl),
		cancelCtx: reg.Counter("privsp_server_query_cancelled_total",
			cancelHelp, dbl, telemetry.L("reason", "context")),
		cancelDeadline: reg.Counter("privsp_server_query_cancelled_total",
			cancelHelp, dbl, telemetry.L("reason", "deadline")),
		cancelAbandon: reg.Counter("privsp_server_query_cancelled_total",
			cancelHelp, dbl, telemetry.L("reason", "abandon")),
		cancelServer: reg.Counter("privsp_server_query_cancelled_total",
			cancelHelp, dbl, telemetry.L("reason", "server")),
		shareFetches: reg.Counter("privsp_server_share_fetches_total",
			"FetchShare frames answered (two-server fleet traffic; zero on non-fleet daemons)", dbl),
		queryLat: reg.Histogram("privsp_server_query_seconds",
			"wall-clock time from a query's first frame to EndQuery",
			telemetry.Seconds(), dbl),
		batchSize: reg.Histogram("privsp_server_fetch_batch_size",
			"pages per Fetch or FetchShare request: one plan quota (the adversary-visible batch shape)",
			telemetry.HistogramOpts{}, dbl),
		scanLat: reg.Histogram("privsp_server_scan_seconds",
			"PIR store read time per Fetch or FetchShare request",
			telemetry.Seconds(), dbl),
		encodeLat: reg.Histogram("privsp_server_encode_seconds",
			"time to write a request's Pages frames from its page buffers, per request",
			telemetry.Seconds(), dbl),
	}
	return h
}
