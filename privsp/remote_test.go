package privsp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/server"
)

// hostDaemon serves the built database on loopback and returns the daemon
// (for tests that read its audit ring and registry) and its address.
func hostDaemon(t *testing.T, opts server.Options, name string, db *Database) (*server.Server, string) {
	t.Helper()
	srv := server.New(opts)
	if err := srv.Host(name, db.LBS(), costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

// startDaemon hosts the built database on loopback and returns its address.
func startDaemon(t *testing.T, name string, db *Database) string {
	t.Helper()
	_, addr := hostDaemon(t, server.Options{}, name, db)
	return addr
}

// TestRemoteDialEndToEnd drives the public API across a real TCP socket:
// Dial returns the same query surface as Serve, the answers agree with the
// in-process deployment, and the daemon-observed trace is identical across
// distinct queries (Theorem 1 over the wire), and the daemon's counters,
// read from its registry, account every query.
func TestRemoteDialEndToEnd(t *testing.T) {
	net0 := Generate(Oldenburg, 0.08, 1)
	db, err := Build(net0, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := hostDaemon(t, server.Options{}, "CI", db)

	local, err := Serve(db)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if remote.Scheme() != CI || remote.Database() != "CI" {
		t.Fatalf("dialed %s/%s", remote.Database(), remote.Scheme())
	}

	var services = map[string]PathService{"local": local, "remote": remote}
	queries := [][2]graph.NodeID{{0, 9}, {3, 40}, {7, 7}}
	var firstServerTrace string
	for qi, q := range queries {
		var costs []float64
		var tr string
		for _, name := range []string{"local", "remote"} {
			res, err := services[name].ShortestPath(context.Background(),
				net0.NodePoint(q[0]), net0.NodePoint(q[1]), WithServerTrace(&tr))
			if err != nil {
				t.Fatalf("query %d via %s: %v", qi, name, err)
			}
			costs = append(costs, res.Cost)
			if tr == "" {
				t.Fatalf("query %d via %s: no server trace", qi, name)
			}
		}
		if math.Abs(costs[0]-costs[1]) > 1e-9 {
			t.Errorf("query %d: local cost %v, remote %v", qi, costs[0], costs[1])
		}
		if firstServerTrace == "" {
			firstServerTrace = tr
		} else if tr != firstServerTrace {
			t.Errorf("query %d: adversarial view changed:\n%svs:\n%s", qi, tr, firstServerTrace)
		}
	}

	if served := metric(srv, `privsp_server_queries_total{db="CI"}`); served != float64(len(queries)) {
		t.Fatalf("CI queries_total = %v, want %d", served, len(queries))
	}
	if pages := metric(srv, `privsp_server_pages_served_total{db="CI"}`); pages == 0 {
		t.Error("CI pages_served_total = 0")
	}
	// The worker-pool gauges: the pool exists (size > 0) and is idle
	// between queries.
	if workers := metric(srv, `privsp_pool_workers{db="CI"}`); workers <= 0 {
		t.Errorf("pool size gauge = %v, want > 0", workers)
	}
	if busy, queued := metric(srv, `privsp_pool_busy{db="CI"}`), metric(srv, `privsp_pool_queued{db="CI"}`); busy != 0 || queued != 0 {
		t.Errorf("idle daemon gauges = %v busy, %v queued", busy, queued)
	}
}

// TestDialUnresponsiveAddress is the Dial-hangs-forever regression test: a
// listener that completes the TCP handshake in the kernel but never answers
// the protocol handshake must fail the dial when the context budget
// expires — Dial and DialContext both carry a connect timeout now.
func TestDialUnresponsiveAddress(t *testing.T) {
	// Listen without ever accepting: the kernel backlog completes TCP
	// connects, so the dial succeeds at the transport level and the client
	// would block forever waiting for the Welcome.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = DialContext(ctx, ln.Addr().String())
	if err == nil {
		t.Fatal("dial to an unresponsive address succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want a deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("dial blocked for %v", elapsed)
	}
	// Cancellation (not just deadlines) aborts a dial too.
	cctx, ccancel := context.WithCancel(context.Background())
	go func() { time.Sleep(50 * time.Millisecond); ccancel() }()
	if _, err := DialContext(cctx, ln.Addr().String()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled dial: err = %v, want context.Canceled", err)
	}
}

// TestShortestPathHonorsContext: the in-process server honors cancellation
// too — a dead context fails the query with ctx.Err() before any round runs.
func TestShortestPathHonorsContext(t *testing.T) {
	net0 := Generate(Oldenburg, 0.05, 1)
	db, err := Build(net0, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.ShortestPath(ctx, net0.NodePoint(0), net0.NodePoint(5)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// An expired deadline reports DeadlineExceeded, not Canceled.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := srv.ShortestPath(dctx, net0.NodePoint(0), net0.NodePoint(5)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestConcurrentQueriesOneRemote drives one RemoteServer from many
// goroutines: the per-query options replace the old per-connection trace
// state, so nothing serializes the queries and every captured server trace
// is the canonical one.
func TestConcurrentQueriesOneRemote(t *testing.T) {
	net0 := Generate(Oldenburg, 0.08, 1)
	db, err := Build(net0, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	addr := startDaemon(t, "CI", db)
	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	local, err := Serve(db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.ShortestPath(context.Background(), net0.NodePoint(0), net0.NodePoint(9))
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr string
			res, err := remote.ShortestPath(context.Background(),
				net0.NodePoint(0), net0.NodePoint(9), WithServerTrace(&tr))
			if err != nil {
				errs <- err
				return
			}
			if res.Cost != want.Cost {
				errs <- fmt.Errorf("cost %v, want %v", res.Cost, want.Cost)
			}
			if tr != want.Trace {
				errs <- fmt.Errorf("server trace deviates from the canonical one")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDialErrors covers the connection-level failure modes.
func TestDialErrors(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to dead port succeeded")
	}
	net0 := Generate(Oldenburg, 0.05, 1)
	db, err := Build(net0, Config{Scheme: HY})
	if err != nil {
		t.Fatal(err)
	}
	addr := startDaemon(t, "HY", db)
	if _, err := DialDatabase(addr, "wrong-name"); err == nil {
		t.Error("unknown database accepted")
	}
	r, err := DialDatabase(addr, "HY")
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := r.ShortestPath(context.Background(), Point{}, Point{}); err == nil {
		t.Error("query on closed connection succeeded")
	}
}
