package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/telemetry"
)

// startSchedServer hosts the named databases on XORPIR stores behind the
// scan scheduler, on a loopback listener.
func startSchedServer(t testing.TB, names ...string) (*Server, string) {
	return startSchedServerOpts(t, Options{Workers: 4}, names...)
}

// startSchedServerOpts is startSchedServer with the full option surface;
// Stores defaults to lbs.XORStores.
func startSchedServerOpts(t testing.TB, opts Options, names ...string) (*Server, string) {
	t.Helper()
	_, dbs := fixture(t)
	if opts.Stores == nil {
		opts.Stores = lbs.XORStores
	}
	srv := New(opts)
	for _, name := range names {
		if err := srv.Host(name, dbs[name], costmodel.Default()); err != nil {
			t.Fatal(err)
		}
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

// xorStoresWidth is lbs.XORStores with every store's scan width forced to
// n: the fixture's files are too small for the size-aware default to fan
// out, so the parallel-scan tests force the segmented kernel on this way.
func xorStoresWidth(n int) lbs.StoreFactory {
	return func(r pagefile.Reader) (pir.Store, error) {
		x, err := pir.NewXORPIR(r)
		if err != nil {
			return nil, err
		}
		x.SetScanWorkers(n)
		return x, nil
	}
}

// TestTheorem1UnderCoScheduling: with the scan scheduler merging fetches
// from many concurrent connections into shared scans, every query's
// adversary-visible trace — client-recorded and daemon-observed — must still
// be exactly the plan's canonical trace. Co-scheduling changes WHEN a scan
// runs and WHO shares it, never what any single query is seen to access
// (Theorem 1 is per query, and must survive the cross-connection batching).
func TestTheorem1UnderCoScheduling(t *testing.T) {
	g, dbs := fixture(t)
	const concurrency = 8

	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			srv, addr := startSchedServer(t, scheme)
			want := lbs.CanonicalTrace(dbs[scheme].Plan)

			// Distinct endpoint pairs per connection, fired together so
			// their rounds interleave and the scheduler actually merges
			// fetches across connections.
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
						errs <- fmt.Errorf("conn %d: client trace deviates under co-scheduling:\ngot:\n%swant:\n%s", i, res.Trace, want)
						return
					}
					if serverTrace != want {
						errs <- fmt.Errorf("conn %d: server-observed trace deviates under co-scheduling:\ngot:\n%swant:\n%s", i, serverTrace, want)
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

			// The scheduler must actually have served this load: every fetch
			// went through it, and no query cost more than one scan pair.
			settle(t, srv, scheme)
			snap := metricTotal(srv.Telemetry(), "privsp_scan_sched_fetches_total")
			scans := metricTotal(srv.Telemetry(), "privsp_scan_sched_scans_total")
			if snap == 0 {
				t.Error("no fetches went through the scan scheduler — XORPIR store not scheduled")
			}
			if scans > snap {
				t.Errorf("scheduler ran %v scans for %v fetches — batching never amortized anything", scans, snap)
			}
		})
	}
}

// metricTotal sums a counter family across its label sets.
func metricTotal(reg *telemetry.Registry, family string) uint64 {
	var total uint64
	for _, row := range reg.Snapshot() {
		if strings.HasPrefix(row.Key, family+"{") || row.Key == family {
			total += row.Counter
		}
	}
	return total
}

// TestTelemetryLeakageFreeCoScheduling extends the PR 6 leakage invariant to
// the scan scheduler's metadata: with XORPIR stores behind the scan
// scheduler, same-shape queries for different endpoints must still
// move every exported series identically — flush-reason counters, batch
// occupancy buckets, fetch/scan tallies and the amortization gauge reveal
// the workload's shape and timing, never which endpoints co-scheduled.
func TestTelemetryLeakageFreeCoScheduling(t *testing.T) {
	g, _ := fixture(t)
	queries := [][2]graph.NodeID{
		{0, graph.NodeID(g.NumNodes() - 1)}, // far apart
		{1, 2},                              // adjacent
		{5, 5},                              // degenerate s == d
	}

	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			srv, addr := startSchedServer(t, scheme)
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

			// The scheduler instrumentation must be alive in these deltas —
			// a delta that never moves the flush counters would mean the
			// invariant is vacuously checking the pre-scheduler series only.
			for _, want := range []string{
				"privsp_scan_flush_total", "privsp_scan_sched_fetches_total",
				"privsp_scan_batch_queries",
			} {
				if !strings.Contains(deltas[0], want) {
					t.Errorf("delta does not move %s:\n%s", want, deltas[0])
				}
			}
			for i := 1; i < len(deltas); i++ {
				if deltas[i] != deltas[0] {
					t.Errorf("endpoints %v and %v produced different scheduler metric deltas — batching metadata is a side channel:\n--- %v ---\n%s\n--- %v ---\n%s",
						queries[0], queries[i], queries[0], deltas[0], queries[i], deltas[i])
				}
			}
		})
	}
}

// TestTheorem1UnderParallelScan re-runs the co-scheduling Theorem 1 check
// with the segmented parallel kernel forced on (scan width = pool size):
// fanning each merged scan across a worker group changes which core XORs
// which words, never which file any query is seen to access, so every
// client-recorded and server-observed trace must still be the plan's
// canonical trace — with a parallel store pass actually engaged.
func TestTheorem1UnderParallelScan(t *testing.T) {
	g, dbs := fixture(t)
	const concurrency = 8

	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			srv, addr := startSchedServerOpts(t,
				Options{Workers: 4, Stores: xorStoresWidth(4)}, scheme)
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
						errs <- fmt.Errorf("conn %d: client trace deviates under parallel scans:\ngot:\n%swant:\n%s", i, res.Trace, want)
						return
					}
					if serverTrace != want {
						errs <- fmt.Errorf("conn %d: server-observed trace deviates under parallel scans:\ngot:\n%swant:\n%s", i, serverTrace, want)
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

			settle(t, srv, scheme)
			// The parallel kernel must actually have run: every file wide
			// enough for >1 worker routes its scans through it.
			parallel := metricTotal(srv.Telemetry(), "privsp_scan_route_total")
			if parallel == 0 {
				t.Error("no scans recorded a kernel route — parallel wiring is dead")
			}
		})
	}
}

// TestTelemetryLeakageFreeParallelScan extends the leakage invariant to the
// parallel kernel's instrumentation: with a scan width > 1, the segment-time
// histogram gains a fixed number of observations per store pass (2 × width —
// a function of configuration) and the kernel-route counters move with scan
// counts — so same-shape queries for different endpoints must still produce
// byte-identical registry deltas.
func TestTelemetryLeakageFreeParallelScan(t *testing.T) {
	g, _ := fixture(t)
	queries := [][2]graph.NodeID{
		{0, graph.NodeID(g.NumNodes() - 1)},
		{1, 2},
		{5, 5},
	}

	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			srv, addr := startSchedServerOpts(t,
				Options{Workers: 4, Stores: xorStoresWidth(4)}, scheme)
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

			for _, want := range []string{
				"privsp_scan_route_total", "privsp_scan_segment_seconds",
			} {
				if !strings.Contains(deltas[0], want) {
					t.Errorf("delta does not move %s:\n%s", want, deltas[0])
				}
			}
			for i := 1; i < len(deltas); i++ {
				if deltas[i] != deltas[0] {
					t.Errorf("endpoints %v and %v produced different metric deltas under parallel scans — a side channel:\n--- %v ---\n%s\n--- %v ---\n%s",
						queries[0], queries[i], queries[0], deltas[0], queries[i], deltas[i])
				}
			}
		})
	}
}

// TestReplicaShareFetchCountsKernelRoute: a share fetch on a -replica-role
// daemon is one pass over a scan store, like any merged fetch, so it must
// show in the kernel-route split operators watch — one FetchShare against a
// width-2 store moves privsp_scan_route_total{kernel="parallel"} by exactly
// one — and, like every replica metric, identically whichever page the
// selector picks out.
func TestReplicaShareFetchCountsKernelRoute(t *testing.T) {
	srv, addr := startSchedServerOpts(t, Options{Workers: 4, Stores: xorStoresWidth(2), ReplicaRole: true}, "CI")
	c := dialDB(t, addr, "CI")
	reg := srv.Telemetry()
	ctx := context.Background()
	var file lbs.FileInfo // the largest: a pass needs a page per scan worker
	for _, f := range c.Files() {
		if f.NumPages > file.NumPages {
			file = f
		}
	}

	shareFetch := func(page int) string {
		t.Helper()
		sel := make([]byte, (file.NumPages+7)/8)
		sel[page/8] |= 1 << (page % 8)
		before := reg.Snapshot()
		q := c.StartQuery()
		if _, err := q.ReadShares(ctx, file.Name, [][]byte{sel}); err != nil {
			t.Fatal(err)
		}
		if _, err := q.End(ctx); err != nil {
			t.Fatal(err)
		}
		settle(t, srv, "CI")
		return telemetry.Delta(before, reg.Snapshot())
	}
	shareFetch(0) // settle once-per-connection effects
	first, last := shareFetch(1), shareFetch(file.NumPages-1)
	if first != last {
		t.Errorf("the selected page leaked into the replica's metrics:\n--- page 1 ---\n%s--- page %d ---\n%s",
			first, file.NumPages-1, last)
	}
	if want := `privsp_scan_route_total{db="CI",kernel="parallel"} +1` + "\n"; !strings.Contains(first, want) {
		t.Errorf("one share fetch did not move the parallel kernel route by one:\n%s", first)
	}
	if strings.Contains(first, `kernel="serial"`) {
		t.Errorf("a width-2 share scan was counted on the serial kernel route:\n%s", first)
	}
}
