package netio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestReadNetwork(t *testing.T) {
	nodes := strings.NewReader(`# comment
0 0.0 0.0
1 1.0 0.5

2 2.0 1.0`)
	edges := strings.NewReader(`# id from to weight
0 0 1 1.5
1 1 2 2.5`)
	g, err := ReadNetwork(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 1.5 {
		t.Errorf("edge 0-1 = %v,%v", w, ok)
	}
	if d := graph.ShortestPath(g, 0, 2).Cost; d != 4 {
		t.Errorf("dist = %v, want 4", d)
	}
}

func TestReadNetworkThreeFieldEdges(t *testing.T) {
	nodes := strings.NewReader("0 0 0\n1 1 1\n")
	edges := strings.NewReader("0 1 3.25\n")
	g, err := ReadNetwork(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 3.25 {
		t.Errorf("edge = %v,%v", w, ok)
	}
}

func TestReadNetworkSparseIDs(t *testing.T) {
	nodes := strings.NewReader("100 0 0\n250 1 1\n")
	edges := strings.NewReader("0 100 250 2\n")
	g, err := ReadNetwork(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("%d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestReadNetworkErrors(t *testing.T) {
	cases := []struct {
		name         string
		nodes, edges string
	}{
		{"short node line", "0 1\n", ""},
		{"bad node id", "x 0 0\n", ""},
		{"bad x coord", "0 x 1\n", ""},
		{"bad y coord", "0 1 y\n", ""},
		{"duplicate id", "0 0 0\n0 1 1\n", ""},
		{"unknown from", "0 0 0\n1 1 1\n", "0 7 1 1\n"},
		{"unknown to", "0 0 0\n1 1 1\n", "0 0 7 1\n"},
		{"bad from", "0 0 0\n1 1 1\n", "0 x 1 1\n"},
		{"bad to", "0 0 0\n1 1 1\n", "0 0 x 1\n"},
		{"bad weight", "0 0 0\n1 1 1\n", "0 0 1 zero\n"},
		{"negative weight", "0 0 0\n1 1 1\n", "0 0 1 -4\n"},
		{"short edge line", "0 0 0\n1 1 1\n", "0 1\n"},
		{"bad 3-field weight", "0 0 0\n1 1 1\n", "0 1 x\n"},
	}
	for _, c := range cases {
		if _, err := ReadNetwork(strings.NewReader(c.nodes), strings.NewReader(c.edges)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestReadNetworkRefusesNonFiniteCoordinates: strconv.ParseFloat reads
// "NaN" and the infinities as floats; as a node's x or y each is refused
// with the node's line number.
func TestReadNetworkRefusesNonFiniteCoordinates(t *testing.T) {
	for _, v := range []string{"NaN", "Inf", "-Inf", "+Infinity"} {
		for _, line := range []string{"2 " + v + " 1", "2 1 " + v} {
			nodes := "0 0 0\n1 1 1\n" + line + "\n"
			_, err := ReadNetwork(strings.NewReader(nodes), strings.NewReader("0 0 1 1\n"))
			if err == nil || !strings.Contains(err.Error(), "node line 3: ") || !strings.Contains(err.Error(), "not finite") {
				t.Errorf("node line %q: err = %v, want a non-finite refusal on line 3", line, err)
			}
		}
	}
}

func TestReadNetworkMixedEdgeArity(t *testing.T) {
	// Autodetection is per line: 4+ fields mean a leading edge id, 3 mean
	// bare "from to weight". A file may mix both.
	nodes := strings.NewReader("0 0 0\n1 1 1\n2 2 2\n")
	edges := strings.NewReader("17 0 1 1.0\n1 2 2.0\n")
	g, err := ReadNetwork(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("parsed %d edges, want 2", g.NumEdges())
	}
	if w, ok := g.EdgeWeight(1, 2); !ok || w != 2.0 {
		t.Errorf("3-field edge = %v,%v", w, ok)
	}
}

func TestReadNetworkEdgeIDIgnored(t *testing.T) {
	// The leading edge id of a 4-field line is documentation only: it is
	// never parsed, so non-numeric ids pass through.
	nodes := strings.NewReader("0 0 0\n1 1 1\n")
	edges := strings.NewReader("e42 0 1 3.0\n")
	g, err := ReadNetwork(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 3.0 {
		t.Errorf("edge = %v,%v", w, ok)
	}
}

func TestReadNetworkOverlongLine(t *testing.T) {
	// Lines beyond the 4 MB scanner buffer surface as an error rather
	// than silent truncation.
	long := "0 0 " + strings.Repeat("9", 5<<20) + "\n"
	if _, err := ReadNetwork(strings.NewReader(long), strings.NewReader("")); err == nil {
		t.Error("overlong line accepted")
	}
}

func TestRoundTripPreservesDistances(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.05)
	var nodes, edges bytes.Buffer
	if err := WriteNetwork(g, &nodes, &edges); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetwork(&nodes, &edges)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("sizes changed: %d/%d vs %d/%d", back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, pair := range [][2]graph.NodeID{{0, 50}, {3, 99}, {10, 200}} {
		want := graph.ShortestPath(g, pair[0], pair[1]).Cost
		got := graph.ShortestPath(back, pair[0], pair[1]).Cost
		if math.Abs(want-got) > 1e-12 {
			t.Errorf("distance %v changed to %v after round trip", want, got)
		}
	}
	for i := 0; i < g.NumNodes(); i += 37 {
		if g.Point(graph.NodeID(i)) != back.Point(graph.NodeID(i)) {
			t.Fatalf("node %d coordinates changed", i)
		}
	}
}

// TestReadNetworkRepeatedRoad: a road listed twice, once each way, loads as
// one road at its least weight and is written back once.
func TestReadNetworkRepeatedRoad(t *testing.T) {
	nodes := strings.NewReader("0 0 0\n1 1 0\n2 2 0\n")
	edges := strings.NewReader("0 0 1 5\n1 1 2 1\n2 1 0 2\n")
	g, err := ReadNetwork(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	for _, arc := range [][2]graph.NodeID{{0, 1}, {1, 0}} {
		if w, ok := g.EdgeWeight(arc[0], arc[1]); !ok || w != 2 {
			t.Errorf("edge %d-%d = %v,%v, want 2,true", arc[0], arc[1], w, ok)
		}
	}
	if d := graph.ShortestPath(g, 0, 2).Cost; d != 3 {
		t.Errorf("dist = %v, want 3", d)
	}
	var nb, eb bytes.Buffer
	if err := WriteNetwork(g, &nb, &eb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(eb.String(), "\n") - 1; lines != 2 {
		t.Errorf("wrote %d edge lines, want 2", lines)
	}
}
