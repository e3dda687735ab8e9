package privsp

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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

// TestAblationConfigs: DisablePacking reaches every scheme that cuts its
// regions with base.Partition.
func TestAblationConfigs(t *testing.T) {
	net := Generate(Oldenburg, 0.06, 1)
	for _, s := range []Scheme{CI, PI, PIStar, HY, LM} {
		full, err := Build(net, Config{Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		unpacked, err := Build(net, Config{Scheme: s, DisablePacking: true})
		if err != nil {
			t.Fatal(err)
		}
		if unpacked.TotalBytes() <= full.TotalBytes() {
			t.Errorf("%s: disabling packing should grow the database (%d B unpacked, %d B packed)", s, unpacked.TotalBytes(), full.TotalBytes())
		}
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

// TestParallelRoadsKeepLeastWeight: a road given twice between the same
// two nodes is one road at its lesser cost, so a→c costs 1 + 1, not the
// 5 + 1 of the first a–b road given. The three nodes tie on y, so AF's
// fixed-region split must cut between distinct x coordinates to snap each
// query point to its own node.
func TestParallelRoadsKeepLeastWeight(t *testing.T) {
	net := NewNetwork()
	a := net.AddNode(Point{X: 0, Y: 0})
	b := net.AddNode(Point{X: 1, Y: 0})
	c := net.AddNode(Point{X: 2, Y: 0})
	for _, e := range []struct {
		u, v NodeID
		w    float64
	}{{a, b, 5}, {a, b, 1}, {b, c, 1}} {
		if err := net.AddRoad(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	if net.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", net.NumEdges())
	}
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
			res, err := srv.ShortestPath(context.Background(), net.NodePoint(a), net.NodePoint(c))
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != 2 {
				t.Errorf("a->c cost %v, want 2", res.Cost)
			}
		})
	}
}

// TestRepeatedRoadsBuildTheSameDatabase: a network with every road given
// three times, once reversed and at heavier weights, builds for every scheme
// the same database bytes as the network with each road given once.
func TestRepeatedRoadsBuildTheSameDatabase(t *testing.T) {
	net := Generate(Oldenburg, 0.03, 1)
	once, repeated := NewNetwork(), NewNetwork()
	for v := range net.NumNodes() {
		once.AddNode(net.NodePoint(NodeID(v)))
		repeated.AddNode(net.NodePoint(NodeID(v)))
	}
	net.G.UndirectedEdges(func(e graph.Edge) bool {
		for _, err := range []error{
			once.AddRoad(e.From, e.To, e.W),
			repeated.AddRoad(e.To, e.From, 1.5*e.W),
			repeated.AddRoad(e.From, e.To, e.W),
			repeated.AddRoad(e.From, e.To, 2*e.W),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	if repeated.NumEdges() != net.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", repeated.NumEdges(), net.NumEdges())
	}
	dir := t.TempDir()
	save := func(t *testing.T, n *Network, scheme Scheme, name string) []byte {
		t.Helper()
		db, err := Build(n, Config{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, string(scheme)+"-"+name+".psdb")
		if err := db.Save(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, scheme := range []Scheme{CI, PI, PIStar, HY, LM, AF} {
		t.Run(string(scheme), func(t *testing.T) {
			if !bytes.Equal(save(t, repeated, scheme, "repeated"), save(t, once, scheme, "once")) {
				t.Error("repeated roads built a different database")
			}
		})
	}
}

// TestRegionHeaderFitsTheTightestPage: two nodes joined by one road, on a
// page exactly as large as their two records (4+8+8+2 bytes of id,
// coordinates and degree, 4+8+2 of the one half-edge: 36 each, and 16 more
// for LM's two landmark distances). A region page also carries a 2-byte node
// count, so the two records cannot share one page: the partition must size
// regions net of that header, or the build fails with "encodes to 74 bytes
// > 1-page cluster".
func TestRegionHeaderFitsTheTightestPage(t *testing.T) {
	net := NewNetwork()
	a := net.AddNode(Point{X: 0, Y: 0})
	b := net.AddNode(Point{X: 1, Y: 1})
	if err := net.AddRoad(a, b, 1.5); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		scheme   Scheme
		pageSize int
	}{{CI, 72}, {PI, 72}, {PIStar, 72}, {HY, 72}, {LM, 104}, {AF, 72}} {
		t.Run(string(c.scheme), func(t *testing.T) {
			db, err := Build(net, Config{Scheme: c.scheme, PageSize: c.pageSize})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := Serve(db)
			if err != nil {
				t.Fatal(err)
			}
			res, err := srv.ShortestPath(context.Background(), net.NodePoint(a), net.NodePoint(b))
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != 1.5 {
				t.Errorf("a->b cost %v, want 1.5", res.Cost)
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
