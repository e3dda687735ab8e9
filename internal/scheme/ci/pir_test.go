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
	"repro/internal/pir"
)

// TestEndToEndOverRealPIR runs complete CI queries with every file served
// through actual two-server XOR PIR rather than the analytic simulation, on
// the serial kernel and on a parallel pass: answers must be identical, and
// the privacy now rests on real mechanics (uniformly random selector vectors,
// whole-file scans) instead of modelling assumptions.
func TestEndToEndOverRealPIR(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.06)
	db, err := Build(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, width := range map[string]int{
		"serial-scan":   1,
		"parallel-scan": 2,
	} {
		t.Run(name, func(t *testing.T) {
			// The files are too small for the size-aware default width to
			// fan out, so the store's width is forced; a pool of the same
			// size keeps the clamp from narrowing it.
			stores := func(r pagefile.Reader) (pir.Store, error) {
				x, err := pir.NewXORPIR(r)
				if err != nil {
					return nil, err
				}
				x.SetScanWorkers(width)
				return x, nil
			}
			srv, err := lbs.NewServer(db, costmodel.Default(), stores, lbs.WithWorkers(width))
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
					t.Fatalf("trial %d over %s: cost %v, want %v", trial, name, res.Cost, want.Cost)
				}
			}
		})
	}
}
