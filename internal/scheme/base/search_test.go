package base

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

// Search is the one best-first search every client runs: Dijkstra with nil
// hooks, A* under a heuristic, and a filtered or aborted search through the
// other two hooks. These tests hold it to graph.ShortestPath over the whole
// network loaded into one ClientGraph.

// randomGraphEuclidean uses Euclidean lengths as weights so that the
// straight-line heuristic is admissible. A random spanning tree keeps it
// connected.
func randomGraphEuclidean(rng *rand.Rand, n int) *graph.Graph {
	g := graph.NewUndirected()
	for i := 0; i < n; i++ {
		g.AddNode(geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	for i := 1; i < n; i++ {
		j := graph.NodeID(rng.Intn(i))
		g.MustAddEdge(j, graph.NodeID(i), g.Point(j).Dist(g.Point(graph.NodeID(i)))+1e-9)
	}
	for i := 0; i < n; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			if _, ok := g.EdgeWeight(u, v); !ok {
				g.MustAddEdge(u, v, g.Point(u).Dist(g.Point(v))+1e-9)
			}
		}
	}
	return g
}

// clientGraphOf loads every node of g, with its landmark vector when lm is
// set, into one ClientGraph.
func clientGraphOf(g *graph.Graph, lm [][]float64) *ClientGraph {
	nodes := make([]RegionNode, g.NumNodes())
	for v := range nodes {
		id := graph.NodeID(v)
		nodes[v] = RegionNode{ID: id, Pt: g.Point(id)}
		if lm != nil {
			nodes[v].LM = lm[v]
		}
		for _, he := range g.Adj(id) {
			nodes[v].Adj = append(nodes[v].Adj, RegionAdj{To: he.To, W: he.W})
		}
	}
	cg := NewClientGraph()
	cg.AddRegionNodes(nodes)
	return cg
}

func euclideanTo(g *graph.Graph, dst graph.NodeID) func(graph.NodeID) float64 {
	return func(v graph.NodeID) float64 { return g.Point(v).Dist(g.Point(dst)) }
}

func TestAStarMatchesDijkstraWithEuclideanHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraphEuclidean(rng, 60)
	cg := clientGraphOf(g, nil)
	for trial := 0; trial < 30; trial++ {
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		want := graph.ShortestPath(g, src, dst)
		cost, path := cg.Search(src, dst, euclideanTo(g, dst), nil, nil)
		if math.Abs(want.Cost-cost) > 1e-9 {
			t.Fatalf("src=%d dst=%d: A* %v, Dijkstra %v", src, dst, cost, want.Cost)
		}
		if got := graph.PathCost(g, path); math.Abs(got-cost) > 1e-9 {
			t.Fatalf("src=%d dst=%d: A* path costs %v, reported %v", src, dst, got, cost)
		}
	}
}

func TestAStarExpandsFewerNodesThanDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraphEuclidean(rng, 400)
	cg := clientGraphOf(g, nil)
	src, dst := graph.NodeID(0), graph.NodeID(399)
	settled := func(h func(graph.NodeID) float64) int {
		n := 0
		cg.Search(src, dst, h, nil, func(graph.NodeID) bool { n++; return true })
		return n
	}
	dij, astar := settled(nil), settled(euclideanTo(g, dst))
	if astar > dij {
		t.Errorf("A* settled %d nodes, plain Dijkstra %d", astar, dij)
	}
}

// TestAStarVisitAbort: onSettle sees nodes in distance order, and the
// first false it returns ends the search with no path and no further
// settles.
func TestAStarVisitAbort(t *testing.T) {
	g := graph.NewUndirected()
	for i := 0; i < 10; i++ {
		g.AddNode(geom.Point{X: float64(i)})
	}
	for i := 1; i < 10; i++ {
		g.MustAddEdge(graph.NodeID(i-1), graph.NodeID(i), 1)
	}
	cg := clientGraphOf(g, nil)
	var seen []graph.NodeID
	cost, path := cg.Search(0, 9, nil, nil, func(v graph.NodeID) bool {
		seen = append(seen, v)
		return v < 5
	})
	if !math.IsInf(cost, 1) || path != nil {
		t.Errorf("aborted search returned cost %v, path %v", cost, path)
	}
	if len(seen) != 6 {
		t.Fatalf("settled %v, want 0..5", seen)
	}
	for i, v := range seen {
		if v != graph.NodeID(i) {
			t.Fatalf("settled %v, want 0..5 in order", seen)
		}
	}
}

// TestDijkstraFiltered: a search that refuses a set of roads finds the
// shortest path of the network without them.
func TestDijkstraFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraphEuclidean(rng, 80)
	cg := clientGraphOf(g, nil)
	type pair struct{ u, v graph.NodeID }
	closed := map[pair]bool{}
	open := graph.NewUndirected()
	for v := 0; v < g.NumNodes(); v++ {
		open.AddNode(g.Point(graph.NodeID(v)))
	}
	g.UndirectedEdges(func(e graph.Edge) bool {
		if rng.Intn(4) == 0 {
			closed[pair{e.From, e.To}], closed[pair{e.To, e.From}] = true, true
		} else {
			open.MustAddEdge(e.From, e.To, e.W)
		}
		return true
	})
	if len(closed) == 0 {
		t.Fatal("no road closed")
	}
	allow := func(from graph.NodeID, he graph.HalfEdge) bool { return !closed[pair{from, he.To}] }
	for trial := 0; trial < 30; trial++ {
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		want := graph.ShortestPath(open, src, dst)
		cost, path := cg.Search(src, dst, nil, allow, nil)
		if want.Found() != (path != nil) || want.Found() && math.Abs(want.Cost-cost) > 1e-9 {
			t.Fatalf("src=%d dst=%d: filtered %v (path %v), want %v", src, dst, cost, path, want.Cost)
		}
		if path != nil {
			if got := graph.PathCost(open, path); math.Abs(got-cost) > 1e-9 {
				t.Fatalf("src=%d dst=%d: path uses a closed road or costs %v, reported %v", src, dst, got, cost)
			}
		}
	}
}

// TestLandmarkALTMatchesDijkstra: A* under LM's landmark bound, over
// vectors decoded from node records, finds the true shortest path.
func TestLandmarkALTMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraphEuclidean(rng, 150)
	lm := graph.BuildLandmarks(g, graph.SelectLandmarks(g, 5))
	cg := clientGraphOf(g, lm.Dist)
	for trial := 0; trial < 25; trial++ {
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		want := graph.ShortestPath(g, src, dst)
		cost, _ := cg.Search(src, dst, landmarkBound(cg, dst), nil, nil)
		if math.Abs(want.Cost-cost) > 1e-9 {
			t.Fatalf("src=%d dst=%d: ALT cost %v, Dijkstra %v", src, dst, cost, want.Cost)
		}
	}
}
