package server

// Chaos tests: the daemon served through internal/faultinject must degrade
// one query or one connection at a time — never crash, never deadlock, and
// never record a trace that deviates from the public plan.

import (
	"context"
	"net"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/wire"
)

// TestFaultMidRoundTracePrefix: a query that dies to an injected page-read
// EIO mid-round leaves a server trace that is a strict prefix of the
// canonical plan trace — a failed fetch is never recorded, so the abort
// point reveals only timing, exactly like a client cancellation
// (Theorem 1's no-abort-leakage property under storage faults).
func TestFaultMidRoundTracePrefix(t *testing.T) {
	g, dbs := fixture(t)
	canonical := lbs.CanonicalTrace(dbs["CI"].Plan)
	inj := faultinject.New(faultinject.Config{EIOEvery: 5, Seed: 1})
	srv := New(Options{Stores: func(f pagefile.Reader) (pir.Store, error) {
		return pir.NewPlain(inj.Reader(f)), nil
	}})
	if err := srv.Host("CI", dbs["CI"], costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	done, addr := listen(t, srv)
	defer shutdown(t, srv, done)

	c := dialDB(t, addr, "CI")
	ctx := context.Background()
	failures, recorded := 0, 0
	for i := 0; i < 6; i++ {
		s := graph.NodeID((i * 17) % g.NumNodes())
		d := graph.NodeID((i*31 + 5) % g.NumNodes())
		qs := c.StartQuery()
		if _, err := queryScheme(ctx, qs, "CI", s, d, g); err != nil {
			// The injected EIO surfaced as a server error mid-round, and the
			// daemon ended the query there, recording its partial trace —
			// the view the adversary had. The Cancel is a no-op.
			qs.Cancel(wire.CancelContext)
			failures++
			recorded++
			continue
		}
		if _, err := qs.End(ctx); err != nil {
			t.Fatal(err)
		}
		recorded++
	}
	if failures == 0 {
		t.Fatal("eio=5 injected no faults across 6 queries — the wrapper is not in the read path")
	}

	traces := waitTraces(t, srv, "CI", recorded)
	for i, tr := range traces {
		if !strings.HasPrefix(canonical, tr) {
			t.Errorf("trace %d is not a prefix of the canonical plan trace:\n%s", i, tr)
		}
	}

	// The daemon survived its storage faults: accounting settles and the
	// connection still answers.
	settle(t, srv, "CI")
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("daemon unresponsive after injected faults: %v", err)
	}
}

// TestServerSurvivesTornConnections: connections that die mid-write (torn
// frames) take down their own queries and nothing else — later connections
// complete full queries and the daemon stays ready.
func TestServerSurvivesTornConnections(t *testing.T) {
	g, dbs := fixture(t)
	srv := New(Options{})
	if err := srv.Host("CI", dbs["CI"], costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{TearEvery: 2, Seed: 7})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(inj.Listener(ln)) }()
	defer shutdown(t, srv, done)
	addr := ln.Addr().String()

	// Every second accepted connection tears after a small write budget —
	// far less than one query's page traffic — so its query dies mid-stream.
	successes, failures := 0, 0
	for i := 0; i < 6; i++ {
		c, err := client.Dial(addr, client.Options{Database: "CI"})
		if err != nil {
			failures++ // torn during the handshake
			continue
		}
		d := graph.NodeID((5 + i) % g.NumNodes())
		if _, _, err := remoteQuery(c, "CI", 1, d, g); err != nil {
			failures++
		} else {
			successes++
		}
		c.Close()
	}
	if successes == 0 {
		t.Fatal("no query survived — tear=2 should spare every other connection")
	}
	if failures == 0 {
		t.Fatal("no connection was torn — the fault listener is not in the accept path")
	}

	// The daemon took the torn connections in stride: it is still ready,
	// still accounting, and a fresh connection runs a full query.
	if !srv.Ready() {
		t.Error("daemon not ready after torn connections")
	}
	settle(t, srv, "CI")
	c := dialDB(t, addr, "CI")
	if _, _, err := remoteQuery(c, "CI", 2, 9, g); err != nil {
		t.Fatalf("full query after the torn batch: %v", err)
	}
}
