package base

// refGraph is the map-based client graph every scheme searched before
// ClientGraph moved to dense local numbering, kept as it was as the
// equivalence oracle (TestClientGraphMatchesReference), the way
// xorAnswerBytes guards the scan kernel: same inputs, same cost, same path
// node for node.

import (
	"container/heap"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/precomp"
)

type refGraph struct {
	adj  map[graph.NodeID][]graph.HalfEdge
	pts  map[graph.NodeID]geom.Point
	lm   map[graph.NodeID][]float64
	seen map[[2]graph.NodeID]bool
	// hints remembers, for nodes referenced by fetched adjacency lists but
	// not yet fetched themselves, which region their page lives in — the
	// incremental baselines (LM, AF) use it to decide what to fetch next.
	hints map[graph.NodeID]kdtree.RegionID
	// flags carries the per-edge Arc-flag bit-vectors (AF only).
	flags map[[2]graph.NodeID][]byte
}

// newRefGraph returns an empty client graph.
func newRefGraph() *refGraph {
	return &refGraph{
		adj:   map[graph.NodeID][]graph.HalfEdge{},
		pts:   map[graph.NodeID]geom.Point{},
		lm:    map[graph.NodeID][]float64{},
		seen:  map[[2]graph.NodeID]bool{},
		hints: map[graph.NodeID]kdtree.RegionID{},
		flags: map[[2]graph.NodeID][]byte{},
	}
}

// AddRegionNodes merges a decoded region page. Each half-edge implies its
// reverse, which may live in a page the client never fetches, so it is
// added here.
func (cg *refGraph) AddRegionNodes(nodes []RegionNode) {
	for _, rn := range nodes {
		cg.pts[rn.ID] = rn.Pt
		if rn.LM != nil {
			cg.lm[rn.ID] = rn.LM
		}
		for _, a := range rn.Adj {
			cg.addEdge(rn.ID, a.To, a.W)
			cg.hints[a.To] = a.ToRegion
			if a.Flags != nil {
				// Flags are symmetrized at build time, so the reverse
				// direction shares the bit-vector.
				cg.flags[[2]graph.NodeID{rn.ID, a.To}] = a.Flags
				cg.flags[[2]graph.NodeID{a.To, rn.ID}] = a.Flags
			}
			cg.addEdge(a.To, rn.ID, a.W)
		}
	}
}

// AddSubgraphEdges merges PI-style G_i,j edges.
func (cg *refGraph) AddSubgraphEdges(edges []precomp.EdgeRef) {
	for _, e := range edges {
		cg.addEdge(e.From, e.To, e.W)
		cg.addEdge(e.To, e.From, e.W)
	}
}

func (cg *refGraph) addEdge(u, v graph.NodeID, w float64) {
	k := [2]graph.NodeID{u, v}
	if cg.seen[k] {
		return
	}
	cg.seen[k] = true
	cg.adj[u] = append(cg.adj[u], graph.HalfEdge{To: v, W: w})
}

// Has reports whether v's record (not just its id as a neighbour) was added.
func (cg *refGraph) Has(v graph.NodeID) bool {
	_, ok := cg.pts[v]
	return ok
}

// RegionHint returns the region a referenced-but-unfetched node lives in,
// as recorded in the adjacency entry that discovered it.
func (cg *refGraph) RegionHint(v graph.NodeID) (kdtree.RegionID, bool) {
	r, ok := cg.hints[v]
	return r, ok
}

// EdgeFlags returns the Arc-flag bit-vector of edge u→v, or nil if unknown.
func (cg *refGraph) EdgeFlags(u, v graph.NodeID) []byte {
	return cg.flags[[2]graph.NodeID{u, v}]
}

// Point returns v's coordinates (zero if unknown).
func (cg *refGraph) Point(v graph.NodeID) geom.Point { return cg.pts[v] }

// LMVector returns v's landmark vector, or nil.
func (cg *refGraph) LMVector(v graph.NodeID) []float64 { return cg.lm[v] }

// Adj returns the known half-edges out of v.
func (cg *refGraph) Adj(v graph.NodeID) []graph.HalfEdge { return cg.adj[v] }

// NumNodes returns how many node records are known.
func (cg *refGraph) NumNodes() int { return len(cg.pts) }

// Nearest returns the known node closest to p, restricted to candidates
// (nil = all known nodes). Clients snap arbitrary query coordinates to the
// network this way (§5.4: sources and destinations may lie anywhere).
func (cg *refGraph) Nearest(p geom.Point, candidates []RegionNode) graph.NodeID {
	best, bestD := graph.Invalid, math.Inf(1)
	if candidates != nil {
		for _, rn := range candidates {
			if d := p.Dist(rn.Pt); d < bestD {
				best, bestD = rn.ID, d
			}
		}
		return best
	}
	for id, pt := range cg.pts {
		if d := p.Dist(pt); d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

// refItem is an open-list entry of the client search.
type refItem struct {
	node graph.NodeID
	f    float64
}

type refPQ []refItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].f < q[j].f }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// Dijkstra computes a shortest path s→t over the assembled graph. It
// returns +Inf cost when t is unreachable from the fetched data (which, for
// a correct scheme, means unreachable in the full network).
func (cg *refGraph) Dijkstra(s, t graph.NodeID) (float64, []graph.NodeID) {
	return cg.Search(s, t, nil, nil, nil)
}

// Search is the configurable client-side best-first search used by every
// scheme:
//
//   - h, if non-nil, is an admissible heuristic (A*; LM supplies landmark
//     bounds). Inadmissible drift from unknown nodes is avoided by treating
//     missing information as h=0 and allowing reopening.
//   - allowEdge, if non-nil, filters edges (AF supplies flag filtering).
//   - onSettle, if non-nil, runs when a node is settled, before expansion;
//     LM/AF fetch missing region pages there. Returning false aborts.
//
// The search is correct for admissible-but-inconsistent heuristics because
// g-improvements re-queue nodes (reopening).
func (cg *refGraph) Search(
	s, t graph.NodeID,
	h func(graph.NodeID) float64,
	allowEdge func(from graph.NodeID, e graph.HalfEdge) bool,
	onSettle func(graph.NodeID) bool,
) (float64, []graph.NodeID) {
	if h == nil {
		h = func(graph.NodeID) float64 { return 0 }
	}
	g := map[graph.NodeID]float64{s: 0}
	parent := map[graph.NodeID]graph.NodeID{}
	open := &refPQ{{node: s, f: h(s)}}
	for open.Len() > 0 {
		it := heap.Pop(open).(refItem)
		v := it.node
		gv := g[v]
		if it.f > gv+h(v)+1e-12 {
			continue // stale entry
		}
		if v == t {
			return gv, refPath(parent, s, t)
		}
		if onSettle != nil && !onSettle(v) {
			return math.Inf(1), nil
		}
		for _, he := range cg.adj[v] {
			if allowEdge != nil && !allowEdge(v, he) {
				continue
			}
			nd := gv + he.W
			if old, ok := g[he.To]; !ok || nd < old-1e-15 {
				g[he.To] = nd
				parent[he.To] = v
				heap.Push(open, refItem{node: he.To, f: nd + h(he.To)})
			}
		}
	}
	return math.Inf(1), nil
}

func refPath(parent map[graph.NodeID]graph.NodeID, s, t graph.NodeID) []graph.NodeID {
	var rev []graph.NodeID
	for v := t; ; {
		rev = append(rev, v)
		if v == s {
			break
		}
		p, ok := parent[v]
		if !ok {
			return nil
		}
		v = p
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
