// Package graph implements the weighted road-network model of §3.1 and the
// shortest-path machinery every scheme in the paper builds on: Dijkstra's
// algorithm, A* search, and ALT (A* with landmark lower bounds).
//
// A road network is a weighted graph G = (V, E). Nodes carry Euclidean
// coordinates; every edge has a positive weight modelling traversal cost.
// The network is undirected: a road can be driven both ways at one cost,
// so each road is stored as an arc in both endpoints' adjacency lists, and
// a road given twice keeps its least weight. §3.1 allows directed edges;
// this reproduction does not, and one-way streets are a parked ROADMAP item.
package graph

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// NodeID identifies a node. IDs are dense: valid IDs are 0..NumNodes()-1.
type NodeID int32

// Invalid is the sentinel for "no node" (e.g. absent parent pointers).
const Invalid NodeID = -1

// HalfEdge is one adjacency entry: an arc from an implicit source node to
// To with weight W.
type HalfEdge struct {
	To NodeID
	W  float64
}

// Edge is a fully specified arc: one direction of a road.
type Edge struct {
	From, To NodeID
	W        float64
}

// Graph is an in-memory undirected weighted graph with Euclidean node
// coordinates. The zero value is an empty graph; NewUndirected returns one.
type Graph struct {
	pts      []geom.Point
	adj      [][]HalfEdge
	numEdges int
}

// NewUndirected returns an empty graph. AddEdge inserts both directions of
// a road.
func NewUndirected() *Graph { return &Graph{} }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.pts) }

// NumEdges returns |E|, the number of roads.
func (g *Graph) NumEdges() int { return g.numEdges }

// AddNode appends a node at p and returns its ID.
func (g *Graph) AddNode(p geom.Point) NodeID {
	g.pts = append(g.pts, p)
	g.adj = append(g.adj, nil)
	return NodeID(len(g.pts) - 1)
}

// Point returns the coordinates of v.
func (g *Graph) Point(v NodeID) geom.Point { return g.pts[v] }

// SetPoint overwrites the coordinates of v. Used by generators that jitter
// coordinates after construction.
func (g *Graph) SetPoint(v NodeID, p geom.Point) { g.pts[v] = p }

// AddEdge inserts the road u–v with weight w (> 0) as the arcs u→v and
// v→u. A road already present between u and v keeps the lesser of its
// weight and w, on both arcs, and is not counted again. Self loops are
// rejected.
func (g *Graph) AddEdge(u, v NodeID, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self loop at node %d", u)
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("graph: edge %d->%d has non-positive weight %v", u, v, w)
	}
	if int(u) >= len(g.pts) || int(v) >= len(g.pts) || u < 0 || v < 0 {
		return fmt.Errorf("graph: edge %d->%d references missing node", u, v)
	}
	if i := g.arc(u, v); i >= 0 {
		if w < g.adj[u][i].W {
			g.adj[u][i].W = w
			g.adj[v][g.arc(v, u)].W = w
		}
		return nil
	}
	g.adj[u] = append(g.adj[u], HalfEdge{To: v, W: w})
	g.adj[v] = append(g.adj[v], HalfEdge{To: u, W: w})
	g.numEdges++
	return nil
}

// arc returns the position of u→v in u's adjacency list, or -1.
func (g *Graph) arc(u, v NodeID) int {
	for i, he := range g.adj[u] {
		if he.To == v {
			return i
		}
	}
	return -1
}

// MustAddEdge is AddEdge but panics on error; for generators and tests whose
// inputs are valid by construction.
func (g *Graph) MustAddEdge(u, v NodeID, w float64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// Adj returns the adjacency list of u. The caller must not mutate it.
func (g *Graph) Adj(u NodeID) []HalfEdge { return g.adj[u] }

// Degree returns the number of roads at u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// EdgeWeight returns the weight of the road u–v and whether it exists.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	if i := g.arc(u, v); i >= 0 {
		return g.adj[u][i].W, true
	}
	return 0, false
}

// Edges calls fn for every arc, both directions of each road. Iteration
// stops early if fn returns false.
func (g *Graph) Edges(fn func(Edge) bool) {
	for u := range g.adj {
		for _, he := range g.adj[u] {
			if !fn(Edge{From: NodeID(u), To: he.To, W: he.W}) {
				return
			}
		}
	}
}

// UndirectedEdges calls fn once per road, as its arc u→v with u < v, in the
// order Edges meets those arcs. Iteration stops early if fn returns false.
func (g *Graph) UndirectedEdges(fn func(Edge) bool) {
	for u := range g.adj {
		for _, he := range g.adj[u] {
			if NodeID(u) < he.To {
				if !fn(Edge{From: NodeID(u), To: he.To, W: he.W}) {
					return
				}
			}
		}
	}
}

// NearestNode returns the node closest to p in Euclidean distance, or
// Invalid for an empty graph. Linear scan; used for snapping arbitrary query
// coordinates onto the network.
func (g *Graph) NearestNode(p geom.Point) NodeID {
	best, bestD := Invalid, math.Inf(1)
	for i, q := range g.pts {
		if d := p.Dist(q); d < bestD {
			best, bestD = NodeID(i), d
		}
	}
	return best
}
