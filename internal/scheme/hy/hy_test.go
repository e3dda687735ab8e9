package hy

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/pi"
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

func TestQueryMatchesDijkstraAcrossThresholds(t *testing.T) {
	// Thresholds low enough that many pairs are subgraph-answered and high
	// enough that many are set-answered, exercising both paths.
	for _, th := range []int{1, 3, 8, 1000} {
		g, srv := buildServer(t, base.Config{Threshold: th})
		rng := rand.New(rand.NewSource(int64(th)))
		for trial := 0; trial < 20; trial++ {
			s := graph.NodeID(rng.Intn(g.NumNodes()))
			d := graph.NodeID(rng.Intn(g.NumNodes()))
			res, err := Query(context.Background(), srv, g.Point(s), g.Point(d))
			if err != nil {
				t.Fatalf("threshold %d trial %d: %v", th, trial, err)
			}
			want := graph.ShortestPath(g, s, d)
			if math.Abs(res.Cost-want.Cost) > 1e-9 {
				t.Fatalf("threshold %d trial %d (s=%d t=%d): HY %v, want %v", th, trial, s, d, res.Cost, want.Cost)
			}
		}
	}
}

// TestIndistinguishability is the critical HY property: set-answered and
// subgraph-answered queries must be indistinguishable, which is exactly why
// F_i and F_d are concatenated (§6).
func TestIndistinguishability(t *testing.T) {
	g, srv := buildServer(t, base.Config{Threshold: 4})
	rng := rand.New(rand.NewSource(7))
	var ref string
	for trial := 0; trial < 30; trial++ {
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

func TestSingleCombinedFile(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.1)
	db, err := Build(g, base.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if db.File(base.FileCombined) == nil {
		t.Fatal("no combined file")
	}
	if db.File(base.FileIndex) != nil || db.File(base.FileData) != nil {
		t.Fatal("HY must not expose separate index/data files (leaks set-vs-subgraph)")
	}
}

func TestSpaceTimeTradeoffAgainstCIAndPI(t *testing.T) {
	// §6: HY sits between CI (small, slow) and PI (large, fast). Lowering
	// the threshold moves it toward PI on both axes.
	g := gen.GeneratePreset(gen.Oldenburg, 0.15)
	cidb, err := ci.Build(g, base.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pidb, err := pi.Build(g, base.Config{})
	if err != nil {
		t.Fatal(err)
	}
	low, err := Build(g, base.Config{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Build(g, base.Config{Threshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if low.TotalBytes() <= high.TotalBytes() {
		t.Errorf("low threshold (%d B) should need more space than high (%d B)",
			low.TotalBytes(), high.TotalBytes())
	}
	if low.Plan.TotalPIRAccesses() > high.Plan.TotalPIRAccesses() {
		t.Errorf("low threshold should plan fewer PIR accesses: %d vs %d",
			low.Plan.TotalPIRAccesses(), high.Plan.TotalPIRAccesses())
	}
	t.Logf("space: CI=%d  HY(th=2)=%d  HY(th=max)=%d  PI=%d",
		cidb.TotalBytes(), low.TotalBytes(), high.TotalBytes(), pidb.TotalBytes())
	t.Logf("plan accesses: CI=%d  HY(th=2)=%d  HY(th=max)=%d  PI=%d",
		cidb.Plan.TotalPIRAccesses(), low.Plan.TotalPIRAccesses(),
		high.Plan.TotalPIRAccesses(), pidb.Plan.TotalPIRAccesses())
}

func TestRejectsBadThreshold(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.05)
	if _, err := Build(g, base.Config{Threshold: -1}); err == nil {
		t.Error("threshold -1 accepted")
	}
}

func TestCompressionOffStillCorrect(t *testing.T) {
	g, srv := buildServer(t, base.Config{Threshold: 5, DisableCompression: true})
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		res, err := Query(context.Background(), srv, g.Point(s), g.Point(d))
		if err != nil {
			t.Fatal(err)
		}
		want := graph.ShortestPath(g, s, d)
		if math.Abs(res.Cost-want.Cost) > 1e-9 {
			t.Fatalf("trial %d: %v want %v", trial, res.Cost, want.Cost)
		}
	}
}
