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

// TestCompactDataEndToEnd: the §8 "compress the network data" extension
// must shrink the region-data file without changing any answer.
func TestCompactDataEndToEnd(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.12)
	plain, err := Build(g, base.Config{})
	if err != nil {
		t.Fatal(err)
	}
	compact, err := Build(g, base.Config{CompactData: true})
	if err != nil {
		t.Fatal(err)
	}
	pf, cf := pagefile.Bytes(plain.File(base.FileData)), pagefile.Bytes(compact.File(base.FileData))
	if cf >= pf {
		t.Errorf("compact Fd %d bytes >= plain %d", cf, pf)
	}
	t.Logf("Fd: %d -> %d bytes (%.1f%%)", pf, cf, 100*float64(cf)/float64(pf))

	srv, err := lbs.NewServer(compact, costmodel.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		res, err := Query(context.Background(), srv, g.Point(s), g.Point(d))
		if err != nil {
			t.Fatal(err)
		}
		want := graph.ShortestPath(g, s, d)
		if math.Abs(res.Cost-want.Cost) > 1e-9 {
			t.Fatalf("trial %d: compact CI %v, want %v (must be lossless)", trial, res.Cost, want.Cost)
		}
	}
}

func TestCompactRegionCodecRoundTrip(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.05)
	codec := &base.RegionCodec{G: g, Compact: true}
	// A fake one-region partition over a slice of nodes.
	sizeSum := 0
	for v := 0; v < g.NumNodes(); v++ {
		sizeSum += codec.NodeSize(graph.NodeID(v))
	}
	if sizeSum <= 0 {
		t.Fatal("no sizes")
	}
	// NodeSize must be an exact upper bound for the encoding (equality
	// except the fixed 2-byte count header).
	plainCodec := &base.RegionCodec{G: g}
	for v := 0; v < g.NumNodes(); v += 13 {
		if codec.NodeSize(graph.NodeID(v)) >= plainCodec.NodeSize(graph.NodeID(v)) {
			t.Fatalf("node %d: compact size %d >= plain %d",
				v, codec.NodeSize(graph.NodeID(v)), plainCodec.NodeSize(graph.NodeID(v)))
		}
	}
}
