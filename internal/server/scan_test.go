package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir/pirtest"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// startScanServer hosts db as name on scan stores, on a loopback listener;
// opts.Stores defaults to lbs.XORStores.
func startScanServer(t testing.TB, opts Options, name string, db *lbs.Database) (*Server, string) {
	t.Helper()
	if opts.Stores == nil {
		opts.Stores = lbs.XORStores
	}
	srv := New(opts)
	if err := srv.Host(name, db, costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// TestTheorem1UnderCoScheduling: with many connections' fetches running as
// concurrent passes over the same scan stores at the derived width (the
// fixture's small files resolve to the serial kernel), every query's
// adversary-visible trace, client-recorded and daemon-observed, must still
// be exactly the plan's canonical trace. Concurrency changes WHEN a pass
// runs, never what any single query is seen to access (Theorem 1 is per
// query).
func TestTheorem1UnderCoScheduling(t *testing.T) {
	checkTheorem1Concurrent(t, nil, "privsp_pir_scans_total")
}

// TestTheorem1UnderParallelScan is TestTheorem1UnderCoScheduling with every
// pass on the segmented kernel, at a width of at least 2 that
// pirtest.WideXORStores checks on every store: which core XORs which words must not change which
// file any query is seen to access.
func TestTheorem1UnderParallelScan(t *testing.T) {
	checkTheorem1Concurrent(t, pirtest.WideXORStores(t), "privsp_pir_scans_total")
}

// checkTheorem1Concurrent hosts every scheme on a four-slot pool of the given
// scan stores (nil: lbs.XORStores) and fires 8 connections with distinct
// endpoint pairs at once, so their passes overlap; each query's client and
// server traces must equal the plan's canonical trace, and every family in
// moved must have moved.
func checkTheorem1Concurrent(t *testing.T, stores lbs.StoreFactory, moved ...string) {
	g, dbs := fixture(t)
	const concurrency = 8

	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			srv, addr := startScanServer(t, Options{Stores: stores}, scheme, dbs[scheme])
			want := lbs.CanonicalTrace(dbs[scheme].Plan)

			var wg sync.WaitGroup
			errs := make(chan error, concurrency)
			for i := 0; i < concurrency; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c := dialDB(t, addr, scheme)
					s := graph.NodeID(i % g.NumNodes())
					d := graph.NodeID((g.NumNodes() - 1 - 3*i + g.NumNodes()) % g.NumNodes())
					res, serverTrace, err := remoteQuery(c, scheme, s, d, g)
					if err != nil {
						errs <- fmt.Errorf("conn %d (s=%d d=%d): %w", i, s, d, err)
						return
					}
					if res.Trace != want {
						errs <- fmt.Errorf("conn %d: client trace deviates under concurrent scans:\ngot:\n%swant:\n%s", i, res.Trace, want)
						return
					}
					if serverTrace != want {
						errs <- fmt.Errorf("conn %d: server-observed trace deviates under concurrent scans:\ngot:\n%swant:\n%s", i, serverTrace, want)
						return
					}
					errs <- nil
				}(i)
			}
			wg.Wait()
			for i := 0; i < concurrency; i++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}

			// The scan stores must actually have served this load.
			settle(t, srv, scheme)
			for _, family := range moved {
				if metricTotal(srv.Telemetry(), family) == 0 {
					t.Errorf("%s did not move — the scan stores were not engaged", family)
				}
			}
		})
	}
}

// metricTotal sums a counter family, or a histogram family's observation
// count, across its label sets.
func metricTotal(reg *telemetry.Registry, family string) uint64 {
	var total uint64
	for _, row := range reg.Snapshot() {
		if strings.HasPrefix(row.Key, family+"{") || row.Key == family {
			total += row.Counter + row.Hist.Count
		}
	}
	return total
}

// metricGauge sums a gauge family across its label sets; given a full
// series key, it reads that one series.
func metricGauge(reg *telemetry.Registry, family string) float64 {
	var total float64
	for _, row := range reg.Snapshot() {
		if strings.HasPrefix(row.Key, family+"{") || row.Key == family {
			total += row.Gauge
		}
	}
	return total
}

// TestTelemetryLeakageFreeCoScheduling extends the leakage invariant to the
// scan stores' instrumentation at the derived width: the pass counters move
// with every fetch, so same-shape queries for different endpoints must
// still produce byte-identical registry deltas.
func TestTelemetryLeakageFreeCoScheduling(t *testing.T) {
	checkTelemetryLeakageFree(t, nil, "privsp_pir_scans_total")
}

// TestTelemetryLeakageFreeParallelScan is TestTelemetryLeakageFreeCoScheduling
// with every pass on the segmented kernel, at a width of at least 2 that
// pirtest.WideXORStores checks on every store.
func TestTelemetryLeakageFreeParallelScan(t *testing.T) {
	checkTelemetryLeakageFree(t, pirtest.WideXORStores(t), "privsp_pir_scans_total")
}

// checkTelemetryLeakageFree hosts every scheme on the given scan stores (nil:
// lbs.XORStores) and runs same-shape queries for different endpoints on one
// connection: each query's registry delta must move every family in moved,
// and all the deltas must be byte-identical.
func checkTelemetryLeakageFree(t *testing.T, stores lbs.StoreFactory, moved ...string) {
	g, dbs := fixture(t)
	queries := [][2]graph.NodeID{
		{0, graph.NodeID(g.NumNodes() - 1)}, // far apart
		{1, 2},                              // adjacent
		{5, 5},                              // degenerate s == d
	}

	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			srv, addr := startScanServer(t, Options{Stores: stores}, scheme, dbs[scheme])
			c := dialDB(t, addr, scheme)
			reg := srv.Telemetry()

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
				settle(t, srv, scheme)
				deltas[i] = telemetry.Delta(before, reg.Snapshot())
			}

			// The scan instrumentation must be alive in these deltas, or the
			// invariant checks only the other series.
			for _, want := range moved {
				if !strings.Contains(deltas[0], want) {
					t.Errorf("delta does not move %s:\n%s", want, deltas[0])
				}
			}
			for i := 1; i < len(deltas); i++ {
				if deltas[i] != deltas[0] {
					t.Errorf("endpoints %v and %v produced different metric deltas under scan stores — a side channel:\n--- %v ---\n%s\n--- %v ---\n%s",
						queries[0], queries[i], queries[0], deltas[0], queries[i], deltas[i])
				}
			}
		})
	}
}

// TestReplicaShareFetchIsOnePass: a share fetch on a -replica-role daemon is
// one pass over a scan store, like any fetch batch there, so one FetchShare
// against a store of width at least 2 moves the file's
// privsp_pir_scans_total by exactly one — and, like every replica metric,
// identically whichever page the selector picks out. The replica hosts one
// 1 MiB file, so the share is folded by the segmented kernel.
func TestReplicaShareFetchIsOnePass(t *testing.T) {
	db := &lbs.Database{
		Scheme: "RAW",
		Header: []byte("raw fixture header\n"),
		Files:  []pagefile.Reader{pirtest.WideFile("pages")},
		Plan:   plan.Plan{Rounds: []plan.Round{{Fetches: []plan.Fetch{{File: "pages", Count: 1}}}}},
	}
	opts := Options{Stores: pirtest.WideXORStores(t), ReplicaRole: true}
	srv, addr := startScanServer(t, opts, "RAW", db)
	c := dialDB(t, addr, "RAW")
	reg := srv.Telemetry()
	ctx := context.Background()
	file := c.Files()[0]

	shareFetch := func(page int) string {
		t.Helper()
		sel := make([]byte, (file.NumPages+7)/8)
		sel[page/8] |= 1 << (page % 8)
		before := reg.Snapshot()
		q := c.StartQuery()
		ans, err := q.ReadShareFrames(ctx, []client.ShareFrame{{File: file.Name, Sels: [][]byte{sel}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.End(ctx); err != nil {
			t.Fatal(err)
		}
		// A one-bit selector's share is the page itself: page i holds i+1.
		if want := bytes.Repeat([]byte{byte(page + 1)}, file.PageSize); !bytes.Equal(ans[0][0], want) {
			t.Fatalf("share of page %d is not the page", page)
		}
		settle(t, srv, "RAW")
		return telemetry.Delta(before, reg.Snapshot())
	}
	shareFetch(0) // settle once-per-connection effects
	first, last := shareFetch(1), shareFetch(file.NumPages-1)
	if first != last {
		t.Errorf("the selected page leaked into the replica's metrics:\n--- page 1 ---\n%s--- page %d ---\n%s",
			first, file.NumPages-1, last)
	}
	if want := `privsp_pir_scans_total{db="RAW",file="` + file.Name + `"} +1`; !strings.Contains(first, want+"\n") {
		t.Errorf("one share fetch did not move %q:\n%s", want, first)
	}
	if n := strings.Count(first, "privsp_pir_scans_total"); n != 1 {
		t.Errorf("one share fetch moved %d files' pass counters, want 1:\n%s", n, first)
	}
}
