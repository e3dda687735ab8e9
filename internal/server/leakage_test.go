package server

import (
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// TestTelemetryLeakageFree is the defining invariant of the telemetry
// subsystem: the daemon's exported metrics must be a function of the
// adversary-visible trace plus wall-clock timing, never of the query
// contents. Queries with the same shape (same scheme, same public plan) but
// different src/dst endpoints must move every counter, gauge and exact
// histogram identically — byte-identical registry deltas, with timing
// histograms contributing observation counts only (telemetry.Delta elides
// their buckets). A metric that moved differently for different endpoints
// would be a side channel Theorem 1 forbids.
func TestTelemetryLeakageFree(t *testing.T) {
	g, _ := fixture(t)
	queries := [][2]graph.NodeID{
		{0, graph.NodeID(g.NumNodes() - 1)}, // far apart
		{1, 2},                              // adjacent
		{5, 5},                              // degenerate s == d
	}

	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			srv, addr := startServer(t, scheme)
			c := dialDB(t, addr, scheme)
			reg := srv.Telemetry()

			// One warmup query settles every once-per-connection effect
			// (handshake accounting, pool warm-up) so the measured deltas
			// cover exactly one steady-state query each.
			if _, _, err := remoteQuery(c, scheme, 3, 4, g); err != nil {
				t.Fatal(err)
			}
			settle(t, srv, scheme)

			deltas := make([]string, len(queries))
			for i, q := range queries {
				before := reg.Snapshot()
				if _, _, err := remoteQuery(c, scheme, q[0], q[1], g); err != nil {
					t.Fatalf("query %v: %v", q, err)
				}
				// The query goroutine's finish path (the inflight decrement)
				// runs after the client sees QueryDone; wait for it so the
				// delta reflects a fully settled query, deterministically.
				settle(t, srv, scheme)
				deltas[i] = telemetry.Delta(before, reg.Snapshot())
			}

			if deltas[0] == "" {
				t.Fatal("query moved no metrics — instrumentation is dead")
			}
			for _, want := range []string{
				"privsp_server_queries_total", "privsp_server_pages_served_total",
				"privsp_server_fetch_batch_size", "privsp_server_query_seconds",
			} {
				if !strings.Contains(deltas[0], want) {
					t.Errorf("delta does not move %s:\n%s", want, deltas[0])
				}
			}
			for i := 1; i < len(deltas); i++ {
				if deltas[i] != deltas[0] {
					t.Errorf("endpoints %v and %v produced different metric deltas — a side channel:\n--- %v ---\n%s\n--- %v ---\n%s",
						queries[0], queries[i], queries[0], deltas[0], queries[i], deltas[i])
				}
			}
		})
	}
}

// settle waits for the daemon's per-query finish accounting to complete:
// the in-flight gauge drains to zero once every query goroutine has run its
// finish path.
func settle(t *testing.T, srv *Server, db string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		busy := false
		for _, family := range []string{"privsp_server_queries_inflight", "privsp_pool_busy", "privsp_pool_queued"} {
			if metricGauge(srv.Telemetry(), family+`{db="`+db+`"}`) != 0 {
				busy = true
			}
		}
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("query accounting did not settle")
		}
		time.Sleep(time.Millisecond)
	}
}
