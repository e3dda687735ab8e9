package privsp

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestAllSchemesEndToEnd(t *testing.T) {
	net := Generate(Oldenburg, 0.08, 1)
	oracle := func(s, d NodeID) float64 { return graph.ShortestPath(net.G, s, d).Cost }

	for _, scheme := range []Scheme{CI, PI, PIStar, HY, LM, AF} {
		t.Run(string(scheme), func(t *testing.T) {
			db, err := Build(net, Config{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := Serve(db)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 8; trial++ {
				s := NodeID(rng.Intn(net.NumNodes()))
				d := NodeID(rng.Intn(net.NumNodes()))
				res, err := srv.ShortestPath(context.Background(), net.NodePoint(s), net.NodePoint(d))
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(res.Cost-oracle(s, d)) > 1e-9 {
					t.Fatalf("%s trial %d: cost %v, want %v", scheme, trial, res.Cost, oracle(s, d))
				}
			}
		})
	}
}

func TestManualNetworkConstruction(t *testing.T) {
	net := NewNetwork()
	a := net.AddNode(Point{X: 0, Y: 0.01})
	b := net.AddNode(Point{X: 1, Y: 1.02})
	c := net.AddNode(Point{X: 2, Y: 0.03})
	d := net.AddNode(Point{X: 3, Y: 1.04})
	for _, e := range []struct {
		u, v NodeID
		w    float64
	}{{a, b, 1}, {b, c, 1}, {c, d, 1}, {a, c, 3}} {
		if err := net.AddRoad(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Build(net, Config{Scheme: CI, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.ShortestPath(context.Background(), net.NodePoint(a), net.NodePoint(d))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 3 {
		t.Errorf("cost %v, want 3", res.Cost)
	}
}

func TestUnknownSchemeRejected(t *testing.T) {
	net := Generate(Oldenburg, 0.02, 1)
	// OBF, the obfuscation baseline, leaks its candidate sets and is not a
	// servable scheme.
	for _, scheme := range []Scheme{"nope", "OBF"} {
		if _, err := Build(net, Config{Scheme: scheme}); err == nil {
			t.Errorf("unknown scheme %q accepted", scheme)
		}
	}
}

func TestDatabaseMetadata(t *testing.T) {
	net := Generate(Oldenburg, 0.05, 1)
	db, err := Build(net, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	if db.TotalBytes() <= 0 {
		t.Error("no size reported")
	}
	if db.Plan() == "" {
		t.Error("no plan reported")
	}
	if db.Scheme() != CI {
		t.Error("scheme mismatch")
	}
}

func TestAblationConfigs(t *testing.T) {
	net := Generate(Oldenburg, 0.06, 1)
	full, err := Build(net, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	unpacked, err := Build(net, Config{Scheme: CI, DisablePacking: true})
	if err != nil {
		t.Fatal(err)
	}
	if unpacked.TotalBytes() <= full.TotalBytes() {
		t.Error("disabling packing should grow the database")
	}
}

func TestExtensionConfigs(t *testing.T) {
	net := Generate(Oldenburg, 0.08, 1)
	compact, err := Build(net, Config{Scheme: PI, CompactData: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(net, Config{Scheme: PI})
	if err != nil {
		t.Fatal(err)
	}
	if compact.TotalBytes() >= plain.TotalBytes() {
		t.Error("compact database should be smaller")
	}
	// Compact results stay exact.
	srv, err := Serve(compact)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		s := NodeID(rng.Intn(net.NumNodes()))
		d := NodeID(rng.Intn(net.NumNodes()))
		res, err := srv.ShortestPath(context.Background(), net.NodePoint(s), net.NodePoint(d))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Cost-graph.ShortestPath(net.G, s, d).Cost) > 1e-9 {
			t.Fatal("compact PI returned a different cost")
		}
	}
}

// TestAllSchemesDirected exercises §3.1's general case — directed edges
// with asymmetric weights — across every fixed-plan scheme.
func TestAllSchemesDirected(t *testing.T) {
	und := Generate(Oldenburg, 0.06, 2)
	net := &Network{G: graph.Directize(und.G, 0.25)}
	oracle := func(s, d NodeID) float64 { return graph.ShortestPath(net.G, s, d).Cost }
	for _, scheme := range []Scheme{CI, PI, PIStar, HY} {
		t.Run(string(scheme), func(t *testing.T) {
			db, err := Build(net, Config{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := Serve(db)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			for trial := 0; trial < 6; trial++ {
				s := NodeID(rng.Intn(net.NumNodes()))
				d := NodeID(rng.Intn(net.NumNodes()))
				res, err := srv.ShortestPath(context.Background(), net.NodePoint(s), net.NodePoint(d))
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(res.Cost-oracle(s, d)) > 1e-9 {
					t.Fatalf("%s directed trial %d: cost %v, want %v", scheme, trial, res.Cost, oracle(s, d))
				}
			}
		})
	}
}

func TestLoadSaveNetwork(t *testing.T) {
	net := Generate(Oldenburg, 0.03, 1)
	var nodes, edges bytes.Buffer
	if err := net.SaveNetwork(&nodes, &edges); err != nil {
		t.Fatal(err)
	}
	back, err := LoadNetwork(&nodes, &edges)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != net.NumNodes() || back.NumEdges() != net.NumEdges() {
		t.Fatal("round trip changed the network")
	}
}

func TestStatsExposed(t *testing.T) {
	net := Generate(Oldenburg, 0.05, 1)
	db, err := Build(net, Config{Scheme: PI})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.ShortestPath(context.Background(), net.NodePoint(0), net.NodePoint(20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Response() <= 0 {
		t.Error("no response time")
	}
	if res.Trace == "" {
		t.Error("no adversary trace")
	}
}
