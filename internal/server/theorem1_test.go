package server

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/lbs"
)

// TestTheorem1UnderParallelism is the Theorem 1 trace-invariance property
// exercised across the full deployment matrix: every plan-conforming scheme
// (CI, PI, HY, AF, LM) × both backends: the in-process lbs.Server at worker
// pool sizes 1 and 8, and loopback TCP through the daemon at its own pool
// size. Whatever the backend and however many PIR reads execute
// concurrently, the adversary-visible trace
// of every query — distinct endpoints, repeated endpoints, identical
// endpoints — must be the single canonical trace of the public plan.
func TestTheorem1UnderParallelism(t *testing.T) {
	g, dbs := fixture(t)

	// Endpoint pairs chosen to be as distinguishable as possible if
	// anything leaked: far apart, adjacent, and degenerate (s == d).
	queries := [][2]graph.NodeID{
		{0, graph.NodeID(g.NumNodes() - 1)},
		{1, 2},
		{5, 5},
	}

	for _, scheme := range allSchemes {
		want := lbs.CanonicalTrace(dbs[scheme].Plan)
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/in-process/workers=%d", scheme, workers), func(t *testing.T) {
				local, err := lbs.NewServer(dbs[scheme], costmodel.Default(), nil, lbs.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					res, err := queryScheme(context.Background(), local, scheme, q[0], q[1], g)
					if err != nil {
						t.Fatalf("query %d: %v", qi, err)
					}
					if res.Trace != want {
						t.Fatalf("query %d (s=%d d=%d): trace deviates from the plan:\ngot:\n%swant:\n%s",
							qi, q[0], q[1], res.Trace, want)
					}
				}
			})
		}

		t.Run(scheme+"/loopback", func(t *testing.T) {
			srv := New(Options{})
			if err := srv.Host(scheme, dbs[scheme], costmodel.Default()); err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
				if err := <-done; err != nil {
					t.Errorf("serve: %v", err)
				}
			}()

			c, err := client.Dial(ln.Addr().String(), client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for qi, q := range queries {
				res, serverTrace, err := remoteQuery(c, scheme, q[0], q[1], g)
				if err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
				// Client-side and daemon-observed views must both be
				// exactly the plan's canonical trace.
				if res.Trace != want {
					t.Fatalf("query %d: client trace deviates:\ngot:\n%swant:\n%s", qi, res.Trace, want)
				}
				if serverTrace != want {
					t.Fatalf("query %d: server-observed trace deviates:\ngot:\n%swant:\n%s", qi, serverTrace, want)
				}
			}
			// The daemon's audit ring agrees: every retained trace is
			// the same string.
			for i, tr := range srv.Traces(scheme) {
				if tr != want {
					t.Fatalf("audit ring trace %d deviates:\ngot:\n%swant:\n%s", i, tr, want)
				}
			}
		})
	}
}
