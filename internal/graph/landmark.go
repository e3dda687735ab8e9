package graph

import "math"

// Landmarks holds the ALT pre-computation of Goldberg & Harrelson [13]: a set
// of anchor nodes and, for every node, the vector of shortest-path distances
// to each anchor. The LM baseline stores one such vector with every node in
// the region-data file.
type Landmarks struct {
	Anchors []NodeID
	// Dist[v][k] is the shortest-path distance between node v and
	// Anchors[k].
	Dist [][]float64
}

// SelectLandmarks picks k anchors with the farthest-point heuristic: the
// first anchor is the node farthest from an arbitrary start, each subsequent
// anchor maximizes the distance to the already-chosen set. This is the
// standard ALT selection strategy and needs k+1 Dijkstra runs.
func SelectLandmarks(g *Graph, k int) []NodeID {
	n := g.NumNodes()
	if n == 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	// Farthest node from node 0 seeds the set.
	t := Dijkstra(g, 0)
	first := NodeID(0)
	bestD := -1.0
	for v, d := range t.Dist {
		if !math.IsInf(d, 1) && d > bestD {
			bestD, first = d, NodeID(v)
		}
	}
	anchors := []NodeID{first}
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	for len(anchors) < k {
		t := Dijkstra(g, anchors[len(anchors)-1])
		next, nd := Invalid, -1.0
		for v := 0; v < n; v++ {
			if t.Dist[v] < minDist[v] {
				minDist[v] = t.Dist[v]
			}
			if !math.IsInf(minDist[v], 1) && minDist[v] > nd {
				nd, next = minDist[v], NodeID(v)
			}
		}
		if next == Invalid {
			break
		}
		anchors = append(anchors, next)
	}
	return anchors
}

// BuildLandmarks computes the landmark distance vectors for the given
// anchors.
func BuildLandmarks(g *Graph, anchors []NodeID) *Landmarks {
	n := g.NumNodes()
	lm := &Landmarks{Anchors: append([]NodeID(nil), anchors...)}
	lm.Dist = make([][]float64, n)
	for i := range lm.Dist {
		lm.Dist[i] = make([]float64, len(anchors))
	}
	for k, a := range anchors {
		t := Dijkstra(g, a)
		for v := 0; v < n; v++ {
			lm.Dist[v][k] = t.Dist[v]
		}
	}
	return lm
}
