package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"net"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/scheme/ci"
	"repro/internal/wire"
)

// boundaryCancel wraps a query backend so the query's context is cancelled
// exactly at the boundary of round k+1: rounds 1..k run to completion, and
// the NextRound announcement for round k+1 is suppressed — nothing of it
// reaches the service. This makes cancellation deterministic for the trace
// prefix property tests.
type boundaryCancel struct {
	inner  lbs.Backend
	cancel context.CancelFunc
	k      int
	n      int
}

func (b *boundaryCancel) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, b) }

func (b *boundaryCancel) HeaderBytes(ctx context.Context) ([]byte, error) {
	return b.inner.HeaderBytes(ctx)
}

func (b *boundaryCancel) FileInfo(name string) (lbs.FileInfo, error) { return b.inner.FileInfo(name) }

func (b *boundaryCancel) NextRound(ctx context.Context) error {
	b.n++
	if b.n > b.k {
		b.cancel()
		return context.Canceled
	}
	return b.inner.NextRound(ctx)
}

func (b *boundaryCancel) ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error) {
	return b.inner.ReadPages(ctx, file, pages)
}

func (b *boundaryCancel) Model() costmodel.Params { return b.inner.Model() }

// batchCancel is boundaryCancel with the batch face (lbs.RoundReader): a
// batch that reaches round k+1 goes out up to that round's announcement,
// then the context is cancelled. The session drives it batch by batch, the
// bare boundaryCancel frame by frame.
type batchCancel struct{ *boundaryCancel }

func (b batchCancel) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, b) }

func (b batchCancel) ReadFrames(ctx context.Context, frames []lbs.Frame) ([][][]byte, error) {
	cut := len(frames)
	for i, f := range frames {
		if f.NewRound {
			if b.n++; b.n > b.k {
				cut = i
				break
			}
		}
	}
	var out [][][]byte
	if cut > 0 { // a batch cut before its first frame sends nothing
		var err error
		if out, err = lbs.ReadFrames(ctx, b.inner, frames[:cut]); err != nil {
			return nil, err
		}
	}
	if cut < len(frames) {
		b.cancel()
		return nil, context.Canceled
	}
	return out, nil
}

// cancelPaths returns the service a boundary-cancelled query runs against
// on each path: frame by frame, and batched.
func cancelPaths(bc *boundaryCancel) map[string]lbs.Service {
	return map[string]lbs.Service{"frame-by-frame": bc, "batched": batchCancel{bc}}
}

// roundPrefix truncates a canonical trace to its first k complete rounds.
func roundPrefix(full string, k int) string {
	marker := fmt.Sprintf("round %d:\n", k+1)
	if i := strings.Index(full, marker); i >= 0 {
		return full[:i]
	}
	return full
}

// waitTraces polls the daemon's audit ring until it holds want traces.
func waitTraces(t *testing.T, srv *Server, db string, want int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		traces := srv.Traces(db)
		if len(traces) >= want {
			return traces
		}
		if time.Now().After(deadline) {
			t.Fatalf("audit ring has %d traces, want %d", len(traces), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancellationTracePrefix is the no-abort-leakage property: for every
// plan-conforming scheme, a query cancelled at round k leaves a server-
// observed trace byte-identical to the first k rounds of an uncancelled
// run. The abort point is client timing, independent of the endpoints, so
// the adversary learns nothing it could not already time (Theorem 1).
func TestCancellationTracePrefix(t *testing.T) {
	g, dbs := fixture(t)
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			srv, addr := startServer(t, scheme)
			c := dialDB(t, addr, scheme)

			// The reference: one uncancelled query, recorded by the daemon.
			_, full, err := remoteQuery(c, scheme, 1, 2, g)
			if err != nil {
				t.Fatal(err)
			}

			rounds := len(dbs[scheme].Plan.Rounds)
			ks := []int{0, 1, rounds - 1}
			recorded := 1
			for _, k := range ks {
				if k < 0 || k >= rounds {
					continue
				}
				for _, path := range []string{"frame-by-frame", "batched"} {
					ctx, cancel := context.WithCancel(context.Background())
					qs := c.StartQuery()
					bc := &boundaryCancel{inner: qs, cancel: cancel, k: k}
					_, err := queryScheme(ctx, cancelPaths(bc)[path], scheme, 3, 5, g)
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("cancel at round %d (%s): err = %v, want context.Canceled", k, path, err)
					}
					qs.Cancel(wire.CancelContext)
					cancel()

					if k == 0 {
						// Cancelled before its first round: no frame of the
						// query left the client, so the daemon records
						// nothing — the empty prefix — and counts no cancel
						// (checked with the counter below).
						if n := len(srv.Traces(scheme)); n != recorded {
							t.Fatalf("cancel at round 0 (%s): audit ring has %d traces, want %d", path, n, recorded)
						}
						continue
					}
					recorded++
					traces := waitTraces(t, srv, scheme, recorded)
					got := traces[len(traces)-1]
					want := roundPrefix(full, k)
					if got != want {
						t.Fatalf("cancel at round %d (%s): server trace is not the first %d rounds:\ngot:\n%swant:\n%s",
							k, path, k, got, want)
					}
					if !strings.HasPrefix(full, got) {
						t.Fatalf("cancel at round %d (%s): trace is not a prefix of the full trace", k, path)
					}
				}
			}

			// The aborts are accounted: every cancelled query moved the
			// cancelled counter, none is still in flight, and the pool
			// gauges are back to idle.
			reg := srv.Telemetry()
			cancelled := `privsp_server_query_cancelled_total{db="` + scheme + `",reason="context"}`
			waitFor(t, "cancelled counter", func() bool {
				return metricTotal(reg, cancelled) == uint64(recorded-1)
			})
			if inflight := metricGauge(reg, "privsp_server_queries_inflight"); inflight != 0 {
				t.Errorf("in-flight = %v after all queries settled", inflight)
			}
			if queries := metricTotal(reg, "privsp_server_queries_total"); queries != 1 {
				t.Errorf("completed queries = %d, want 1", queries)
			}
		})
	}
}

// TestMultiplexedQueriesOneConnection runs 32 interleaved queries over a
// single TCP connection — including two cancelled mid-stream, one driven
// frame by frame and one batched — and checks
// every completed answer against Dijkstra. Run under -race this proves the
// multiplexed client and the per-query server goroutines share the
// connection safely.
func TestMultiplexedQueriesOneConnection(t *testing.T) {
	g, dbs := fixture(t)
	srv, addr := startServer(t, "CI")
	c := dialDB(t, addr, "CI")
	canonical := lbs.CanonicalTrace(dbs["CI"].Plan)

	const queries = 32
	cancelled := map[int]string{13: "frame-by-frame", 21: "batched"}
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := graph.NodeID((i * 131) % g.NumNodes())
			d := graph.NodeID((i*257 + 13) % g.NumNodes())
			if path, ok := cancelled[i]; ok {
				// Two queries are called off after their first round while
				// the other 30 stream on the same connection.
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				qs := c.StartQuery()
				bc := &boundaryCancel{inner: qs, cancel: cancel, k: 1}
				if _, err := ci.Query(ctx, cancelPaths(bc)[path], g.Point(s), g.Point(d)); !errors.Is(err, context.Canceled) {
					errs <- fmt.Errorf("query %d: err = %v, want context.Canceled", i, err)
				}
				qs.Cancel(wire.CancelContext)
				return
			}
			res, trace, err := remoteQuery(c, "CI", s, d, g)
			if err != nil {
				errs <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			want := graph.ShortestPath(g, s, d)
			if math.Abs(res.Cost-want.Cost) > 1e-9 {
				errs <- fmt.Errorf("query %d (s=%d d=%d): cost %v, Dijkstra %v", i, s, d, res.Cost, want.Cost)
			}
			if trace != canonical {
				errs <- fmt.Errorf("query %d: daemon trace deviates from the plan", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All 32 queries ran over ONE connection.
	reg := srv.Telemetry()
	if conns := metricTotal(reg, "privsp_server_connections_total"); conns != 1 {
		t.Errorf("connections_total = %d, want 1", conns)
	}
	waitFor(t, "completed+cancelled accounting", func() bool {
		return metricTotal(reg, "privsp_server_queries_total") == uint64(queries-len(cancelled)) &&
			metricTotal(reg, `privsp_server_query_cancelled_total{db="CI",reason="context"}`) == uint64(len(cancelled)) &&
			metricGauge(reg, "privsp_server_queries_inflight") == 0
	})
	// The worker pool drained: no slot is still held by the cancelled
	// query.
	waitFor(t, "idle pool", func() bool {
		return metricGauge(reg, "privsp_pool_busy") == 0 && metricGauge(reg, "privsp_pool_queued") == 0
	})
}

// slowStore delays every page read, so a query with a short deadline is
// reliably in the middle of a PIR round when the deadline fires. ctx is
// honored between page reads, as the Store contract asks.
type slowStore struct {
	pir.Store
	delay time.Duration
}

func (s slowStore) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	for i := range pages {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(s.delay)
		if err := s.Store.ReadBatchInto(ctx, pages[i:i+1], dst[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// TestDeadlineFreesServerWorker: a query whose deadline expires mid-round
// returns ctx.Err() promptly (within one PIR round, not after the full
// plan), the daemon counts it as deadline-exceeded, and the worker-pool
// slot its read held is freed — the gauges return to idle.
func TestDeadlineFreesServerWorker(t *testing.T) {
	_, dbs := fixture(t)
	srv := New(Options{Stores: func(f pagefile.Reader) (pir.Store, error) {
		return slowStore{Store: pir.NewPlain(f), delay: 20 * time.Millisecond}, nil
	}})
	if err := srv.Host("CI", dbs["CI"], costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	ln, addr := listen(t, srv)
	defer shutdown(t, srv, ln)

	g, _ := fixture(t)
	c := dialDB(t, addr, "CI")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	qs := c.StartQuery()
	start := time.Now()
	_, err := ci.Query(ctx, qs, g.Point(0), g.Point(9))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	qs.Cancel(wire.CancelDeadline)
	// "Within one PIR round": far sooner than the full plan (hundreds of
	// slow pages) would take.
	if elapsed > 2*time.Second {
		t.Errorf("query took %v to honor its deadline", elapsed)
	}

	reg := srv.Telemetry()
	waitFor(t, "deadline counter", func() bool {
		return metricTotal(reg, `privsp_server_query_cancelled_total{db="CI",reason="deadline"}`) == 1
	})
	waitFor(t, "idle pool after deadline", func() bool {
		return metricGauge(reg, "privsp_pool_busy") == 0 && metricGauge(reg, "privsp_pool_queued") == 0
	})
	if inflight := metricGauge(reg, "privsp_server_queries_inflight"); inflight != 0 {
		t.Errorf("in-flight = %v after deadline abort", inflight)
	}
	// Close before the deferred shutdown so it settles immediately instead
	// of force-closing this connection at the drain deadline.
	c.Close()
}

// TestShutdownCancelsInFlightQueries: graceful shutdown aborts in-flight
// queries instead of draining them — the slow query fails promptly with a
// server-side error, and shutdown completes within its window.
func TestShutdownCancelsInFlightQueries(t *testing.T) {
	_, dbs := fixture(t)
	srv := New(Options{Stores: func(f pagefile.Reader) (pir.Store, error) {
		return slowStore{Store: pir.NewPlain(f), delay: 30 * time.Millisecond}, nil
	}})
	if err := srv.Host("CI", dbs["CI"], costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	serveDone, addr := listen(t, srv)

	g, _ := fixture(t)
	c := dialDB(t, addr, "CI")
	qerr := make(chan error, 1)
	go func() {
		qs := c.StartQuery()
		_, err := ci.Query(context.Background(), qs, g.Point(0), g.Point(9))
		qs.Cancel(wire.CancelAbandon)
		qerr <- err
	}()
	// Let the query get in flight, then shut the daemon down.
	waitFor(t, "query in flight", func() bool {
		return metricGauge(srv.Telemetry(), "privsp_server_queries_inflight") == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()

	select {
	case err := <-qerr:
		if err == nil {
			t.Error("in-flight query succeeded through shutdown")
		}
	case <-time.After(4 * time.Second):
		t.Fatal("in-flight query not cancelled by shutdown")
	}
	c.Close()
	if err := <-done; err != nil && err != context.DeadlineExceeded {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// listen starts serving on loopback without registering cleanup (for tests
// that manage shutdown themselves).
func listen(t *testing.T, srv *Server) (chan error, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return done, ln.Addr().String()
}

func shutdown(t *testing.T, srv *Server, done chan error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && err != context.DeadlineExceeded {
		t.Errorf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("serve: %v", err)
	}
}
