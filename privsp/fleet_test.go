package privsp

import (
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/server"
)

// replicaOptions is -replica-role: two-server XOR PIR stores, share fetches
// only.
var replicaOptions = server.Options{
	ReplicaRole: true,
	Stores:      lbs.XORStores,
}

// TestFleetEndToEnd drives the public DialFleet API against two real
// replica daemons: answers match the in-process deployment, the
// replica-recorded trace is identical across distinct queries and equal to
// the single-deployment trace, and each replica's counters, read in
// process, account every query.
func TestFleetEndToEnd(t *testing.T) {
	net0 := Generate(Oldenburg, 0.08, 1)
	db, err := Build(net0, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	srvA, addrA := hostDaemon(t, replicaOptions, "CI", db)
	srvB, addrB := hostDaemon(t, replicaOptions, "CI", db)

	local, err := Serve(db)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := DialFleet(addrA, addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.Scheme() != CI {
		t.Fatalf("fleet resolved %s, want CI", fs.Scheme())
	}

	queries := [][2]graph.NodeID{{0, 9}, {3, 40}, {7, 7}}
	var firstTrace string
	for qi, q := range queries {
		var localTrace, fleetTrace string
		want, err := local.ShortestPath(context.Background(),
			net0.NodePoint(q[0]), net0.NodePoint(q[1]), WithServerTrace(&localTrace))
		if err != nil {
			t.Fatalf("query %d local: %v", qi, err)
		}
		got, err := fs.ShortestPath(context.Background(),
			net0.NodePoint(q[0]), net0.NodePoint(q[1]), WithServerTrace(&fleetTrace))
		if err != nil {
			t.Fatalf("query %d fleet: %v", qi, err)
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9 || len(got.Path) != len(want.Path) {
			t.Errorf("query %d: fleet cost %v (%d nodes), local %v (%d nodes)",
				qi, got.Cost, len(got.Path), want.Cost, len(want.Path))
		}
		if fleetTrace != localTrace {
			t.Errorf("query %d: replica trace differs from the single-deployment trace", qi)
		}
		if firstTrace == "" {
			firstTrace = fleetTrace
		} else if fleetTrace != firstTrace {
			t.Errorf("query %d: adversarial view changed across queries", qi)
		}
	}

	st := fs.Status()
	if st.PairedQueries != uint64(len(queries)) {
		t.Fatalf("status = %+v, want %d paired shares queries", st, len(queries))
	}
	for _, r := range st.Replicas {
		if !r.Up || r.Trips != 0 {
			t.Fatalf("replica %s: %+v, want healthy", r.Addr, r)
		}
	}

	for addr, srv := range map[string]*server.Server{addrA: srvA, addrB: srvB} {
		if served := metric(srv, "privsp_server_queries_total"); served < float64(len(queries)) {
			t.Fatalf("replica %s served %v queries, want ≥%d", addr, served, len(queries))
		}
	}
}

// TestFleetDialErrors: the typed replica error surfaces through the public
// package, a dead replica fails the dial naming it, and one address is
// refused outright — there is no single-server fleet.
func TestFleetDialErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	_, err = DialFleet(dead, dead+"0")
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("dial dead fleet: err = %v, want ErrReplicaDown", err)
	}
	var rd *ReplicaDownError
	if !errors.As(err, &rd) || rd.Addr == "" {
		t.Fatalf("err = %v, want *ReplicaDownError with an address", err)
	}
	if _, err := DialFleet(dead); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Fatalf("one-address fleet: err = %v, want an \"at least 2\" refusal", err)
	}
}
