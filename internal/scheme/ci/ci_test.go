package ci

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
		if res.SnappedSource != s || res.SnappedDest != d {
			t.Fatalf("snapping moved exact node coordinates: %d->%d, %d->%d",
				s, res.SnappedSource, d, res.SnappedDest)
		}
		want := graph.ShortestPath(g, s, d)
		if math.Abs(res.Cost-want.Cost) > 1e-9 {
			t.Fatalf("trial %d (s=%d t=%d): CI cost %v, Dijkstra %v", trial, s, d, res.Cost, want.Cost)
		}
		if got := graph.PathCost(g, res.Path); math.Abs(got-res.Cost) > 1e-9 {
			t.Fatalf("returned path invalid: edges cost %v, reported %v", got, res.Cost)
		}
	}
}

func TestSelfQuery(t *testing.T) {
	g, srv := buildServer(t, base.Config{})
	res, err := Query(context.Background(), srv, g.Point(0), g.Point(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || len(res.Path) != 1 {
		t.Errorf("self query: cost=%v path=%v", res.Cost, res.Path)
	}
}

// TestIndistinguishability is Theorem 1: the adversary-visible trace of any
// query equals that of any other, and re-executions are undetectable.
func TestIndistinguishability(t *testing.T) {
	g, srv := buildServer(t, base.Config{})
	rng := rand.New(rand.NewSource(2))
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
			continue
		}
		if res.Trace != ref {
			t.Fatalf("trial %d trace differs:\n%s\nvs\n%s", trial, res.Trace, ref)
		}
	}
	r1, err := Query(context.Background(), srv, g.Point(5), g.Point(9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Query(context.Background(), srv, g.Point(5), g.Point(9))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trace != r2.Trace || r1.Trace != ref {
		t.Fatal("repeated query has a distinguishable trace")
	}
}

func TestStatsAccounting(t *testing.T) {
	g, srv := buildServer(t, base.Config{})
	res, err := Query(context.Background(), srv, g.Point(1), g.Point(graph.NodeID(g.NumNodes()-1)))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Rounds != 3 {
		t.Errorf("PIR rounds = %d, want 3 (header round is separate)", st.Rounds)
	}
	if st.Fetches[base.FileLookup] != 1 {
		t.Errorf("Fl fetches = %d, want 1", st.Fetches[base.FileLookup])
	}
	if st.Fetches[base.FileIndex] < 1 {
		t.Errorf("Fi fetches = %d", st.Fetches[base.FileIndex])
	}
	if st.Fetches[base.FileData] < 3 {
		t.Errorf("Fd fetches = %d; m+2 should exceed 2", st.Fetches[base.FileData])
	}
	if st.PIR <= 0 || st.Comm <= 0 {
		t.Errorf("cost components not accounted: PIR=%v Comm=%v", st.PIR, st.Comm)
	}
	if st.Response() < st.PIR {
		t.Error("response time smaller than its PIR component")
	}
	if st.HeaderBytes == 0 {
		t.Error("header download not accounted")
	}
}

func TestVariantsProduceCorrectResults(t *testing.T) {
	variants := map[string]base.Config{
		"CI-P (plain partitioning)": {DisablePacking: true},
		"CI-C (no compression)":     {DisableCompression: true},
		"CI-PC (neither)":           {DisablePacking: true, DisableCompression: true},
	}
	for name, cfg := range variants {
		t.Run(name, func(t *testing.T) {
			g, srv := buildServer(t, cfg)
			rng := rand.New(rand.NewSource(3))
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

func TestCompressionShrinksIndex(t *testing.T) {
	// A small page size yields many regions and a multi-page index, giving
	// the in-page delta coding room to work.
	g := gen.GeneratePreset(gen.Oldenburg, 0.2)
	cfg := base.Config{PageSize: 512}
	with, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableCompression = true
	without, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wi := pagefile.Bytes(with.File(base.FileIndex))
	wo := pagefile.Bytes(without.File(base.FileIndex))
	if wi >= wo {
		t.Errorf("compressed Fi %d bytes >= uncompressed %d", wi, wo)
	}
	t.Logf("Fi: %d -> %d bytes (%.1f%%)", wo, wi, 100*float64(wi)/float64(wo))
}

func TestPackingShrinksDatabase(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.12)
	packed, err := Build(g, base.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(g, base.Config{DisablePacking: true})
	if err != nil {
		t.Fatal(err)
	}
	if pagefile.Bytes(packed.File(base.FileData)) >= pagefile.Bytes(plain.File(base.FileData)) {
		t.Errorf("packed Fd %d >= plain Fd %d", pagefile.Bytes(packed.File(base.FileData)), pagefile.Bytes(plain.File(base.FileData)))
	}
}

func TestArbitraryCoordinatesSnap(t *testing.T) {
	// Query points that are not nodes: §5.4 says sources/destinations may
	// lie anywhere; the client snaps to the nearest node of the region.
	g, srv := buildServer(t, base.Config{})
	p := g.Point(10)
	p.X += 1e-4
	p.Y -= 1e-4
	q := g.Point(200)
	q.X -= 1e-4
	res, err := Query(context.Background(), srv, p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() {
		t.Fatal("no path for snapped query")
	}
	if math.IsInf(res.Cost, 1) {
		t.Fatal("infinite cost")
	}
}
