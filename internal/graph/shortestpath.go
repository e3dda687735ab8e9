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
	return dijkstra(g, src, Invalid)
}

// DijkstraTo computes shortest paths from src until dst is settled, then
// stops. The returned tree is valid for dst (and all nodes closer than dst).
func DijkstraTo(g *Graph, src, dst NodeID) *SPTree {
	return dijkstra(g, src, dst)
}

func dijkstra(g *Graph, src, dst NodeID) *SPTree {
	n := g.NumNodes()
	t := &SPTree{Dist: make([]float64, n), Parent: make([]NodeID, n)}
	search(g, t, newNodeHeap(n), make([]bool, n), src, dst)
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
	search(s.g, &s.t, s.h, s.done, src, Invalid) // a full search empties h
	return &s.t
}

// search fills t with the shortest path tree from src, stopping once dst is
// settled. h must be empty and done all false.
func search(g *Graph, t *SPTree, h *nodeHeap, done []bool, src, dst NodeID) {
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
