package graph

import (
	"math"
)

// Path is a shortest-path result: the node sequence from source to
// destination and its total cost. An empty Nodes slice means "unreachable".
type Path struct {
	Nodes []NodeID
	Cost  float64
}

// Found reports whether the path exists.
func (p Path) Found() bool { return len(p.Nodes) > 0 }

// NumEdges returns the number of edges on the path.
func (p Path) NumEdges() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// SPTree is a single-source shortest path tree: Dist[v] is the cost from the
// source to v (+Inf if unreachable), Parent[v] the predecessor on one
// shortest path (Invalid at the source and unreachable nodes).
type SPTree struct {
	Source NodeID
	Dist   []float64
	Parent []NodeID
}

// PathTo extracts the path from the tree's source to t.
func (t *SPTree) PathTo(dst NodeID) Path {
	if math.IsInf(t.Dist[dst], 1) {
		return Path{Cost: math.Inf(1)}
	}
	var rev []NodeID
	for v := dst; v != Invalid; v = t.Parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return Path{Nodes: rev, Cost: t.Dist[dst]}
}

// Dijkstra computes the full shortest path tree from src.
func Dijkstra(g *Graph, src NodeID) *SPTree {
	return dijkstra(g, src, Invalid, nil)
}

// DijkstraTo computes shortest paths from src until dst is settled, then
// stops. The returned tree is valid for dst (and all nodes closer than dst).
func DijkstraTo(g *Graph, src, dst NodeID) *SPTree {
	return dijkstra(g, src, dst, nil)
}

// DijkstraFiltered computes the shortest path tree from src using only edges
// for which allow returns true. A nil allow admits every edge. This powers
// the Arc-flag baseline, where only edges flagged for the destination region
// are considered.
func DijkstraFiltered(g *Graph, src, dst NodeID, allow func(Edge) bool) *SPTree {
	return dijkstra(g, src, dst, allow)
}

func dijkstra(g *Graph, src, dst NodeID, allow func(Edge) bool) *SPTree {
	n := g.NumNodes()
	t := &SPTree{Dist: make([]float64, n), Parent: make([]NodeID, n)}
	search(g, t, newNodeHeap(n), make([]bool, n), src, dst, allow)
	return t
}

// Searcher runs full Dijkstra searches from many sources over one graph and
// reuses its arrays across them. The tree From returns is the one Dijkstra
// would return, and stays valid until the next call.
type Searcher struct {
	g    *Graph
	t    SPTree
	h    *nodeHeap
	done []bool
}

// NewSearcher returns a Searcher over g.
func NewSearcher(g *Graph) *Searcher {
	n := g.NumNodes()
	return &Searcher{
		g:    g,
		t:    SPTree{Dist: make([]float64, n), Parent: make([]NodeID, n)},
		h:    newNodeHeap(n),
		done: make([]bool, n),
	}
}

// From computes the full shortest path tree from src.
func (s *Searcher) From(src NodeID) *SPTree {
	clear(s.done)
	search(s.g, &s.t, s.h, s.done, src, Invalid, nil) // a full search empties h
	return &s.t
}

// search fills t with the shortest path tree from src, stopping once dst is
// settled. h must be empty and done all false.
func search(g *Graph, t *SPTree, h *nodeHeap, done []bool, src, dst NodeID, allow func(Edge) bool) {
	t.Source = src
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Parent[i] = Invalid
	}
	t.Dist[src] = 0
	h.PushOrDecrease(src, 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			return
		}
		for _, he := range g.Adj(u) {
			if done[he.To] {
				continue
			}
			if allow != nil && !allow(Edge{From: u, To: he.To, W: he.W}) {
				continue
			}
			if nd := du + he.W; nd < t.Dist[he.To] {
				t.Dist[he.To] = nd
				t.Parent[he.To] = u
				h.PushOrDecrease(he.To, nd)
			}
		}
	}
}

// ShortestPath returns one shortest path from src to dst by Dijkstra.
func ShortestPath(g *Graph, src, dst NodeID) Path {
	return DijkstraTo(g, src, dst).PathTo(dst)
}

// AStar finds a shortest path from src to dst guided by the admissible
// heuristic h(v) (a lower bound on the remaining cost to dst). It returns
// the path and the number of nodes expanded (settled), which the LM baseline
// uses to account page fetches. A nil heuristic degenerates to Dijkstra.
func AStar(g *Graph, src, dst NodeID, h func(NodeID) float64) (Path, int) {
	return AStarVisit(g, src, dst, h, nil)
}

// AStarVisit is AStar with a visit callback invoked when a node is settled,
// before its neighbours are relaxed. The callback lets callers (the LM and
// AF baselines) model page fetches as the search expands into new regions.
// If visit returns false the search aborts and an empty path is returned.
func AStarVisit(g *Graph, src, dst NodeID, h func(NodeID) float64, visit func(NodeID) bool) (Path, int) {
	if h == nil {
		h = func(NodeID) float64 { return 0 }
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = Invalid
	}
	dist[src] = 0
	pq := newNodeHeap(n)
	pq.PushOrDecrease(src, h(src))
	done := make([]bool, n)
	expanded := 0
	for pq.Len() > 0 {
		u, _ := pq.Pop()
		if done[u] {
			continue
		}
		done[u] = true
		expanded++
		if visit != nil && !visit(u) {
			return Path{Cost: math.Inf(1)}, expanded
		}
		if u == dst {
			tree := SPTree{Source: src, Dist: dist, Parent: parent}
			return tree.PathTo(dst), expanded
		}
		for _, he := range g.Adj(u) {
			if done[he.To] {
				continue
			}
			if nd := dist[u] + he.W; nd < dist[he.To] {
				dist[he.To] = nd
				parent[he.To] = u
				pq.PushOrDecrease(he.To, nd+h(he.To))
			}
		}
	}
	return Path{Cost: math.Inf(1)}, expanded
}

// BellmanFord is a reference shortest-path implementation used only by tests
// as an oracle for Dijkstra and the schemes. O(V*E).
func BellmanFord(g *Graph, src NodeID) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for i := 0; i < n-1; i++ {
		changed := false
		g.Edges(func(e Edge) bool {
			if dist[e.From]+e.W < dist[e.To] {
				dist[e.To] = dist[e.From] + e.W
				changed = true
			}
			return true
		})
		if !changed {
			break
		}
	}
	return dist
}

// PathCost sums edge weights along nodes, validating that each hop is a real
// edge of g. It returns +Inf if any hop is missing or nodes is empty.
func PathCost(g *Graph, nodes []NodeID) float64 {
	if len(nodes) == 0 {
		return math.Inf(1)
	}
	total := 0.0
	for i := 0; i+1 < len(nodes); i++ {
		w, ok := g.EdgeWeight(nodes[i], nodes[i+1])
		if !ok {
			return math.Inf(1)
		}
		total += w
	}
	return total
}

// Eccentricity returns the largest finite shortest-path distance from src.
func Eccentricity(g *Graph, src NodeID) float64 {
	t := Dijkstra(g, src)
	max := 0.0
	for _, d := range t.Dist {
		if !math.IsInf(d, 1) && d > max {
			max = d
		}
	}
	return max
}
