package gen

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestGenerateHitsTargets(t *testing.T) {
	spec := Spec{Name: "test", Nodes: 3000, Edges: 3300, Seed: 42}
	g := Generate(spec)
	if d := math.Abs(float64(g.NumNodes()-spec.Nodes)) / float64(spec.Nodes); d > 0.05 {
		t.Errorf("node count %d deviates %.1f%% from target %d", g.NumNodes(), 100*d, spec.Nodes)
	}
	ratio := float64(g.NumEdges()) / float64(g.NumNodes())
	want := float64(spec.Edges) / float64(spec.Nodes)
	if math.Abs(ratio-want) > 0.15 {
		t.Errorf("edge/node ratio %.3f, want about %.3f", ratio, want)
	}
}

func TestGenerateConnected(t *testing.T) {
	g := GeneratePreset(Oldenburg, 0.2)
	dist := graph.NewSearcher(g).From(0).Dist
	for v, d := range dist {
		if math.IsInf(d, 1) {
			t.Fatalf("node %d unreachable from node 0 of %d nodes; network must be connected", v, g.NumNodes())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Spec{Nodes: 500, Edges: 550, Seed: 9})
	b := Generate(Spec{Nodes: 500, Edges: 550, Seed: 9})
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced different sizes")
	}
	for i := 0; i < a.NumNodes(); i++ {
		if a.Point(graph.NodeID(i)) != b.Point(graph.NodeID(i)) {
			t.Fatalf("node %d coordinates differ across runs", i)
		}
	}
	c := Generate(Spec{Nodes: 500, Edges: 550, Seed: 10})
	same := true
	for i := 0; i < min(a.NumNodes(), c.NumNodes()); i++ {
		if a.Point(graph.NodeID(i)) != c.Point(graph.NodeID(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical coordinates")
	}
}

func TestGenerateDistinctCoordinates(t *testing.T) {
	g := Generate(Spec{Nodes: 2000, Edges: 2200, Seed: 4})
	xs := map[float64]bool{}
	ys := map[float64]bool{}
	for i := 0; i < g.NumNodes(); i++ {
		p := g.Point(graph.NodeID(i))
		if xs[p.X] {
			t.Fatalf("duplicate x coordinate %v", p.X)
		}
		if ys[p.Y] {
			t.Fatalf("duplicate y coordinate %v", p.Y)
		}
		xs[p.X] = true
		ys[p.Y] = true
	}
}

func TestGenerateSparseDegreeDistribution(t *testing.T) {
	g := GeneratePreset(Germany, 0.1)
	deg2 := 0
	maxDeg := 0
	for i := 0; i < g.NumNodes(); i++ {
		d := g.Degree(graph.NodeID(i))
		if d == 2 {
			deg2++
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if frac := float64(deg2) / float64(g.NumNodes()); frac < 0.4 {
		t.Errorf("degree-2 share %.2f; road networks are chain-heavy, want > 0.4", frac)
	}
	if maxDeg > 8 {
		t.Errorf("max degree %d; road junctions should be small", maxDeg)
	}
}

func TestGeneratePositiveWeightsMatchGeometryScale(t *testing.T) {
	g := Generate(Spec{Nodes: 800, Edges: 900, Seed: 77})
	g.Edges(func(e graph.Edge) bool {
		if e.W <= 0 {
			t.Fatalf("edge %d->%d has weight %v", e.From, e.To, e.W)
		}
		return true
	})
}

func TestPresetSpecScaling(t *testing.T) {
	full := PresetSpec(Argentina, 1.0)
	if full.Nodes != 85287 || full.Edges != 88357 {
		t.Errorf("Argentina full spec = %+v", full)
	}
	half := PresetSpec(Argentina, 0.5)
	if half.Nodes != 42643 {
		t.Errorf("half-scale nodes = %d", half.Nodes)
	}
	tiny := PresetSpec(Oldenburg, 0.001)
	if tiny.Nodes < 60 || tiny.Edges <= tiny.Nodes {
		t.Errorf("tiny spec not clamped sanely: %+v", tiny)
	}
}

func TestPresetNames(t *testing.T) {
	want := []string{"Oldenburg", "Germany", "Argentina", "Denmark", "India", "NorthAmerica"}
	for i, p := range AllPresets() {
		if p.String() != want[i] {
			t.Errorf("preset %d name = %q, want %q", i, p.String(), want[i])
		}
	}
}

func TestPresetSpecPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for scale 0")
		}
	}()
	PresetSpec(Oldenburg, 0)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
