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
	"repro/internal/pir/pirtest"
	"repro/internal/scheme/base"
)

// TestEndToEndOverRealPIR runs complete CI queries with every file served
// through actual two-server XOR PIR rather than the analytic simulation, on
// the serial kernel and on a parallel pass: answers must be identical, and
// the privacy now rests on real mechanics (uniformly random selector vectors,
// whole-file scans) instead of modelling assumptions.
func TestEndToEndOverRealPIR(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.06)
	db, err := Build(g, base.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("serial-scan", func(t *testing.T) {
		checkOverXORPIR(t, g, db, lbs.XORStores, 1)
	})
	t.Run("parallel-scan", func(t *testing.T) {
		// A store's scan width is its own: GOMAXPROCS, shrunk so each
		// worker folds at least 512 KiB. The files here are a few KB, so
		// WideXORStores pads each past its last page to 1 MiB and raises
		// GOMAXPROCS to 2 for the test.
		checkOverXORPIR(t, g, db, pirtest.WideXORStores(t), 2)
	})
}

// checkOverXORPIR hosts db on stores behind a pool of the given size and
// checks six random queries' costs against Dijkstra.
func checkOverXORPIR(t *testing.T, g *graph.Graph, db *lbs.Database, stores lbs.StoreFactory, workers int) {
	srv, err := lbs.NewServer(db, costmodel.Default(), stores, lbs.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 6; trial++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		res, err := Query(context.Background(), srv, g.Point(s), g.Point(d))
		if err != nil {
			t.Fatal(err)
		}
		want := graph.ShortestPath(g, s, d)
		if math.Abs(res.Cost-want.Cost) > 1e-9 {
			t.Fatalf("trial %d: cost %v, want %v", trial, res.Cost, want.Cost)
		}
	}
}
