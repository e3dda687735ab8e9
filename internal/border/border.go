// Package border implements the border-node machinery of §5.2. Border nodes
// are the points where network edges cross region boundaries: any path that
// leaves a region must pass through one of that region's border nodes. They
// exist only during pre-processing — the augmented graph built here is used
// to compute the S_i,j region sets and G_i,j subgraphs, and is discarded
// afterwards, exactly as in the paper.
package border

import (
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
)

// Node is one border node: it subdivides an original edge that crosses from
// one region to another, and belongs to both regions.
type Node struct {
	ID       graph.NodeID // node id in the augmented graph
	Regions  [2]kdtree.RegionID
	OrigFrom graph.NodeID // endpoint of the original crossing edge
	OrigTo   graph.NodeID
}

// Augmented is the original network with every region-crossing edge
// subdivided at its boundary point.
type Augmented struct {
	// G is the augmented graph. Nodes 0..NumOrig-1 are the original nodes
	// (same IDs as the input graph); the rest are border nodes.
	G       *graph.Graph
	NumOrig int
	// Borders lists all border nodes. ByRegion[r] indexes into Borders.
	Borders  []Node
	ByRegion [][]int
	// origOf maps an augmented arc (u,v) of a subdivided road back to the
	// original arc it runs along. Arcs of non-crossing roads are absent:
	// they are their own original arc.
	origOf map[[2]graph.NodeID]graph.Edge
}

// Build subdivides every edge of g whose endpoints lie in different regions
// of p. The border point is placed where the segment crosses the boundary
// between the two leaf cells (approximated by the midpoint when the crossing
// cannot be located on a single split line, which cannot change which graph
// paths exist). Weights are split proportionally to the point's position
// along the edge, so all shortest-path distances are preserved exactly.
func Build(g *graph.Graph, p *kdtree.Partition) *Augmented {
	a := &Augmented{
		NumOrig:  g.NumNodes(),
		ByRegion: make([][]int, p.NumRegions),
		origOf:   make(map[[2]graph.NodeID]graph.Edge),
	}
	// One walk over the roads: a road inside one region is copied as is, a
	// crossing road is set aside and subdivided once all others are in.
	ng := graph.NewUndirected()
	for i := 0; i < g.NumNodes(); i++ {
		ng.AddNode(g.Point(graph.NodeID(i)))
	}
	var crossings []graph.Edge
	g.UndirectedEdges(func(e graph.Edge) bool {
		if p.RegionOf[e.From] == p.RegionOf[e.To] {
			ng.MustAddEdge(e.From, e.To, e.W)
		} else {
			crossings = append(crossings, e)
		}
		return true
	})
	for _, c := range crossings {
		ru, rv := p.RegionOf[c.From], p.RegionOf[c.To]
		t := crossFraction(g.Point(c.From), g.Point(c.To), p, ru)
		bid := ng.AddNode(geom.Lerp(g.Point(c.From), g.Point(c.To), t))
		ng.MustAddEdge(c.From, bid, c.W*t)
		ng.MustAddEdge(bid, c.To, c.W*(1-t))
		rev := graph.Edge{From: c.To, To: c.From, W: c.W}
		a.origOf[[2]graph.NodeID{c.From, bid}] = c
		a.origOf[[2]graph.NodeID{bid, c.To}] = c
		a.origOf[[2]graph.NodeID{c.To, bid}] = rev
		a.origOf[[2]graph.NodeID{bid, c.From}] = rev
		a.Borders = append(a.Borders, Node{ID: bid, Regions: [2]kdtree.RegionID{ru, rv}, OrigFrom: c.From, OrigTo: c.To})
		idx := len(a.Borders) - 1
		a.ByRegion[ru] = append(a.ByRegion[ru], idx)
		a.ByRegion[rv] = append(a.ByRegion[rv], idx)
	}
	a.G = ng
	return a
}

// crossFraction finds the fraction along p→q where the segment first leaves
// the leaf cell of region ru. It walks the KD-tree split lines separating
// the two leaf cells; if no single split line cleanly separates them (the
// segment may clip a corner), the midpoint is used — any interior point
// yields a valid subdivision.
func crossFraction(pu, pv geom.Point, part *kdtree.Partition, ru kdtree.RegionID) float64 {
	r := part.Rects[ru]
	best := 1.0
	found := false
	if t, ok := geom.SegCrossXFrac(pu, pv, r.MinX); ok && t < best {
		best, found = t, true
	}
	if t, ok := geom.SegCrossXFrac(pu, pv, r.MaxX); ok && t < best {
		best, found = t, true
	}
	if t, ok := geom.SegCrossYFrac(pu, pv, r.MinY); ok && t < best {
		best, found = t, true
	}
	if t, ok := geom.SegCrossYFrac(pu, pv, r.MaxY); ok && t < best {
		best, found = t, true
	}
	if !found {
		return 0.5
	}
	return best
}

// IsBorder reports whether v is a border node of the augmented graph.
func (a *Augmented) IsBorder(v graph.NodeID) bool { return int(v) >= a.NumOrig }

// BorderAt returns the border Node record for augmented node id v.
func (a *Augmented) BorderAt(v graph.NodeID) Node { return a.Borders[int(v)-a.NumOrig] }

// OrigEdge maps an augmented arc to the original arc it runs along. Arcs
// between original nodes map to themselves.
func (a *Augmented) OrigEdge(u, v graph.NodeID) graph.Edge {
	if e, ok := a.origOf[[2]graph.NodeID{u, v}]; ok {
		return e
	}
	w, _ := a.G.EdgeWeight(u, v)
	return graph.Edge{From: u, To: v, W: w}
}

// RegionsOfNode returns the regions a node of the augmented graph belongs
// to: one region for original nodes, two for border nodes.
func (a *Augmented) RegionsOfNode(v graph.NodeID, p *kdtree.Partition) []kdtree.RegionID {
	if !a.IsBorder(v) {
		return []kdtree.RegionID{p.RegionOf[v]}
	}
	b := a.BorderAt(v)
	return []kdtree.RegionID{b.Regions[0], b.Regions[1]}
}
