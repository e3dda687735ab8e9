package lm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/lbs"
	"repro/internal/scheme/base"
)

func buildServer(t *testing.T, cfg base.Config) (*graph.Graph, *lbs.Server) {
	t.Helper()
	g := gen.GeneratePreset(gen.Oldenburg, 0.1)
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
	g, srv := buildServer(t, base.Config{SafetyMargin: 2}) // sampled plan must cover the test workload
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		res, err := Query(context.Background(), srv, g.Point(s), g.Point(d))
		if err != nil {
			t.Fatal(err)
		}
		want := graph.ShortestPath(g, s, d)
		if math.Abs(res.Cost-want.Cost) > 1e-9 {
			t.Fatalf("trial %d (s=%d t=%d): LM %v, want %v", trial, s, d, res.Cost, want.Cost)
		}
		if got := graph.PathCost(g, res.Path); math.Abs(got-res.Cost) > 1e-9 {
			t.Fatalf("invalid path: %v vs %v", got, res.Cost)
		}
	}
}

// TestLandmarkHeuristicAdmissible runs LM queries whose guide checks every
// bound landmarkGuide gives, over the vectors the client decoded from the
// fetched pages, against the node's true distance to the destination.
func TestLandmarkHeuristicAdmissible(t *testing.T) {
	g, srv := buildServer(t, base.Config{SafetyMargin: 2})
	rng := rand.New(rand.NewSource(3))
	checked, positive := 0, 0
	guide := func(cg *base.ClientGraph, tNode graph.NodeID, rt kdtree.RegionID) (func(graph.NodeID) float64, func(graph.NodeID, graph.HalfEdge) bool) {
		h, allow := landmarkGuide(cg, tNode, rt)
		truth := graph.Dijkstra(g, tNode)
		return func(v graph.NodeID) float64 {
			hv := h(v)
			if hv > truth.Dist[v]+1e-9 {
				t.Errorf("bound towards %d inadmissible: h(%d) = %v > d = %v", tNode, v, hv, truth.Dist[v])
			}
			checked++
			if hv > 0 {
				positive++
			}
			return hv
		}, allow
	}
	for trial := 0; trial < 20; trial++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		ses, err := base.Open(context.Background(), srv, base.LM)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ses.FrontierQuery(g.Point(s), g.Point(d), guide); err != nil {
			t.Fatal(err)
		}
	}
	if positive == 0 {
		t.Fatalf("none of %d bounds was positive: the vectors never reached the guide", checked)
	}
}

func TestIndistinguishability(t *testing.T) {
	g, srv := buildServer(t, base.Config{SafetyMargin: 2})
	rng := rand.New(rand.NewSource(43))
	var ref string
	for trial := 0; trial < 20; trial++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		res, err := Query(context.Background(), srv, g.Point(s), g.Point(d))
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			ref = res.Trace
		} else if res.Trace != ref {
			t.Fatalf("trial %d trace differs:\n%s\nvs\n%s", trial, res.Trace, ref)
		}
	}
}

func TestPlanQuotaPadsShortQueries(t *testing.T) {
	g, srv := buildServer(t, base.Config{SafetyMargin: 2})
	// A trivial nearby query must cost exactly as much as the plan says.
	res, err := Query(context.Background(), srv, g.Point(0), g.Point(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Fetches[base.FileData]; got != srv.Database().Plan.TotalFetches(base.FileData) {
		t.Errorf("short query fetched %d pages, plan demands %d", got, srv.Database().Plan.TotalFetches(base.FileData))
	}
}

func TestMoreLandmarksBiggerDatabase(t *testing.T) {
	// Figure 5(b): storage grows with the landmark count.
	g := gen.GeneratePreset(gen.Oldenburg, 0.1)
	small, err := Build(g, base.Config{Landmarks: 2, DeriveQueries: 64, SafetyMargin: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(g, base.Config{Landmarks: 16, DeriveQueries: 64, SafetyMargin: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if big.TotalBytes() <= small.TotalBytes() {
		t.Errorf("16 landmarks (%d B) should need more space than 2 (%d B)", big.TotalBytes(), small.TotalBytes())
	}
}

func TestRejectsNegativeLandmarks(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.05)
	if _, err := Build(g, base.Config{Landmarks: -1}); err == nil {
		t.Error("-1 landmarks accepted")
	}
}
