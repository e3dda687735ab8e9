package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func line(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode(geom.Point{X: float64(i)})
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), 1)
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewUndirected()
	a := g.AddNode(geom.Point{})
	b := g.AddNode(geom.Point{X: 1})
	if err := g.AddEdge(a, a, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(a, b, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := g.AddEdge(a, b, -2); err == nil {
		t.Error("negative weight accepted")
	}
	if err := g.AddEdge(a, b, math.NaN()); err == nil {
		t.Error("NaN weight accepted")
	}
	if err := g.AddEdge(a, 99, 1); err == nil {
		t.Error("missing node accepted")
	}
	if err := g.AddEdge(a, b, 3); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestUndirectedEdgeCounting(t *testing.T) {
	g := line(t, 5)
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	count := 0
	g.UndirectedEdges(func(Edge) bool { count++; return true })
	if count != 4 {
		t.Errorf("UndirectedEdges visited %d, want 4", count)
	}
	arcs := 0
	g.Edges(func(Edge) bool { arcs++; return true })
	if arcs != 8 {
		t.Errorf("Edges visited %d arcs, want 8", arcs)
	}
}

// TestAddEdgeMergesParallelRoads: a road given again between the same two
// nodes, in either direction, is one road at the least weight, on both arcs.
func TestAddEdgeMergesParallelRoads(t *testing.T) {
	g := NewUndirected()
	a := g.AddNode(geom.Point{})
	b := g.AddNode(geom.Point{X: 1})
	c := g.AddNode(geom.Point{X: 2})
	g.MustAddEdge(a, b, 5)
	g.MustAddEdge(b, c, 1)
	g.MustAddEdge(a, b, 3)
	g.MustAddEdge(b, a, 4)
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	for _, arc := range [][2]NodeID{{a, b}, {b, a}} {
		if w, ok := g.EdgeWeight(arc[0], arc[1]); !ok || w != 3 {
			t.Errorf("EdgeWeight(%d, %d) = %v,%v, want 3,true", arc[0], arc[1], w, ok)
		}
	}
	if g.Degree(a) != 1 || g.Degree(b) != 2 {
		t.Errorf("degrees %d, %d, want 1, 2", g.Degree(a), g.Degree(b))
	}
	if d := Dijkstra(g, a).Dist[c]; d != 4 {
		t.Errorf("a->c = %v, want 4", d)
	}
}

func TestDijkstraOnLine(t *testing.T) {
	g := line(t, 10)
	tr := Dijkstra(g, 0)
	for v := 0; v < 10; v++ {
		if tr.Dist[v] != float64(v) {
			t.Errorf("Dist[%d] = %v, want %d", v, tr.Dist[v], v)
		}
	}
	p := tr.PathTo(9)
	if !p.Found() || p.Cost != 9 || len(p.Nodes) != 10 {
		t.Errorf("PathTo(9) = %+v", p)
	}
	if p.NumEdges() != 9 {
		t.Errorf("NumEdges = %d, want 9", p.NumEdges())
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewUndirected()
	a := g.AddNode(geom.Point{})
	b := g.AddNode(geom.Point{X: 1})
	c := g.AddNode(geom.Point{X: 2})
	g.MustAddEdge(a, b, 1)
	tr := Dijkstra(g, a)
	if !math.IsInf(tr.Dist[c], 1) {
		t.Errorf("Dist[c] = %v, want +Inf", tr.Dist[c])
	}
	if tr.PathTo(c).Found() {
		t.Error("path to unreachable node reported found")
	}
}

// randomGraph builds a connected random undirected graph with n nodes.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode(geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	// Spanning chain keeps it connected, then random extra edges.
	for i := 1; i < n; i++ {
		g.MustAddEdge(NodeID(rng.Intn(i)), NodeID(i), 0.01+rng.Float64())
	}
	extra := n
	for i := 0; i < extra; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u != v {
			g.MustAddEdge(u, v, 0.01+rng.Float64())
		}
	}
	return g
}

func TestDijkstraMatchesBellmanFordProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n)
		src := NodeID(rng.Intn(n))
		want := BellmanFord(g, src)
		got := Dijkstra(g, src)
		for v := 0; v < n; v++ {
			if math.Abs(want[v]-got.Dist[v]) > 1e-9 {
				t.Logf("seed %d: node %d: dijkstra %v bellman-ford %v", seed, v, got.Dist[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSearcherMatchesDijkstra: a Searcher reused across sources, including
// unreachable nodes left over from a previous tree, returns exactly the
// tree Dijkstra does, parent for parent.
func TestSearcherMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n)
		g.AddNode(geom.Point{}) // isolated: unreachable, and a source reaching nothing
		n++
		s := NewSearcher(g)
		for k := 0; k < 5; k++ {
			src := NodeID(rng.Intn(n))
			if k == 2 {
				src = NodeID(n - 1)
			}
			want, got := Dijkstra(g, src), s.From(src)
			if got.Source != src || !slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.Parent, want.Parent) {
				t.Logf("seed %d: tree from %d differs", seed, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDijkstraPathIsValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n)
		src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		p := ShortestPath(g, src, dst)
		if !p.Found() {
			return false // connected by construction
		}
		if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
			return false
		}
		return math.Abs(PathCost(g, p.Nodes)-p.Cost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBuildLandmarksDistances: every landmark vector holds the node's
// shortest-path distance to each anchor, as the Bellman-Ford oracle finds it.
func TestBuildLandmarksDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 120)
	anchors := SelectLandmarks(g, 4)
	if len(anchors) != 4 {
		t.Fatalf("got %d anchors", len(anchors))
	}
	lm := BuildLandmarks(g, anchors)
	for k, a := range anchors {
		want := BellmanFord(g, a)
		for v := range want {
			if got := lm.Dist[v][k]; math.Abs(got-want[v]) > 1e-9 {
				t.Fatalf("Dist[%d][%d] = %v, want %v", v, k, got, want[v])
			}
		}
	}
}

func TestSelectLandmarksSpread(t *testing.T) {
	g := line(t, 100)
	anchors := SelectLandmarks(g, 2)
	// On a line the two farthest-point anchors must be the endpoints.
	if !(anchors[0] == 99 && anchors[1] == 0) && !(anchors[0] == 0 && anchors[1] == 99) {
		t.Errorf("anchors = %v, want the two endpoints", anchors)
	}
}

func TestNearestNode(t *testing.T) {
	g := line(t, 5)
	if v := g.NearestNode(geom.Point{X: 2.4}); v != 2 {
		t.Errorf("NearestNode = %d, want 2", v)
	}
}

func TestHeapDecreaseKey(t *testing.T) {
	h := newNodeHeap(5)
	h.PushOrDecrease(0, 10)
	h.PushOrDecrease(1, 5)
	h.PushOrDecrease(2, 7)
	if !h.PushOrDecrease(0, 1) {
		t.Error("decrease-key rejected")
	}
	if h.PushOrDecrease(1, 9) {
		t.Error("increase accepted")
	}
	v, p := h.Pop()
	if v != 0 || p != 1 {
		t.Errorf("Pop = %d,%v want 0,1", v, p)
	}
	v, _ = h.Pop()
	if v != 1 {
		t.Errorf("Pop = %d want 1", v)
	}
	v, _ = h.Pop()
	if v != 2 || h.Len() != 0 {
		t.Errorf("Pop = %d len=%d", v, h.Len())
	}
}

func TestHeapRandomizedOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		h := newNodeHeap(n)
		for i := 0; i < n; i++ {
			h.PushOrDecrease(NodeID(i), rng.Float64())
		}
		// Random decreases.
		for i := 0; i < n/2; i++ {
			h.PushOrDecrease(NodeID(rng.Intn(n)), -rng.Float64())
		}
		prev := math.Inf(-1)
		for h.Len() > 0 {
			_, p := h.Pop()
			if p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
