package client

import (
	"repro/internal/telemetry"
)

// Client-side series live in the process-global default registry: a client
// process talks to however many daemons it likes, but its own view —
// connects, round trips, open queries — is one program-wide story. Nothing
// here depends on query contents; round-trip timing is the client's own
// wall clock over the adversary-visible frame exchange, one observation per
// batch a query waits on (a round's frames and padding go out as one).
var (
	mConnects = telemetry.Default().Counter("privsp_client_connects_total",
		"daemon connections dialed and handshaken")
	mRoundtrip = telemetry.Default().Histogram("privsp_client_roundtrip_seconds",
		"wall time per pipelined batch of request frames, from the write to the last reply", telemetry.Seconds())
	mInflight = telemetry.Default().Gauge("privsp_client_queries_inflight",
		"query sessions open right now")
	// Retry accounting, by stage: dial retries re-attempt the connect and
	// handshake; query retries re-run a whole query the daemon shed with
	// Busy — with fresh PIR randomness, never a resent round. Eagerly
	// registered so the series exist (at zero) before the first retry.
	mRetriesDial = telemetry.Default().Counter("privsp_retries_total",
		"retry attempts, by stage", telemetry.L("stage", "dial"))
	mRetriesQuery = telemetry.Default().Counter("privsp_retries_total",
		"retry attempts, by stage", telemetry.L("stage", "query"))
)

// CountDialRetry counts one connect/handshake retry attempt. The retry
// loops live above this package (privsp wires retrier to Dial); the
// counter lives here with the other client-side series.
func CountDialRetry() { mRetriesDial.Inc() }

// CountQueryRetry counts one whole-query retry after a Busy shed.
func CountQueryRetry() { mRetriesQuery.Inc() }
