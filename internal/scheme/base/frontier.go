package base

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
)

// fetchRegionFn retrieves a region's decoded nodes from whatever medium
// backs the search: memory during plan derivation, a Session at query time.
// endpoint marks the two host-region fetches of the plan's first round;
// every later region opens a round of its own (§4).
type fetchRegionFn func(r kdtree.RegionID, endpoint bool) ([]RegionNode, error)

// Guide builds the two ClientGraph.Search parameters that tell LM and AF
// apart, once the endpoints are snapped: LM's landmark heuristic towards
// tNode, AF's arc-flag filter for the destination region rt.
type Guide func(cg *ClientGraph, tNode graph.NodeID, rt kdtree.RegionID) (
	h func(graph.NodeID) float64,
	allowEdge func(from graph.NodeID, e graph.HalfEdge) bool,
)

// frontierSearch is the client algorithm of the incremental baselines (§4):
// fetch the two host regions, snap the endpoints, then search, fetching a
// region the first time the frontier settles a node inside it. A fetch
// error — the plan running out included — aborts the search and is returned.
func frontierSearch(tree *kdtree.Tree, directed bool, sPt, tPt geom.Point, fetch fetchRegionFn, guide Guide) (
	cost float64, path []graph.NodeID, sNode, tNode graph.NodeID, err error,
) {
	rs, rt := tree.Locate(sPt), tree.Locate(tPt)
	cg := NewClientGraph(directed)
	fetched := map[kdtree.RegionID]bool{}
	get := func(r kdtree.RegionID, endpoint bool) ([]RegionNode, error) {
		nodes, err := fetch(r, endpoint)
		if err != nil {
			return nil, err
		}
		fetched[r] = true
		cg.AddRegionNodes(nodes)
		return nodes, nil
	}
	sNodes, err := get(rs, true)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	// The plan's first round holds two fetches even when rt == rs.
	tNodes, err := get(rt, true)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	sNode = cg.Nearest(sPt, sNodes)
	tNode = cg.Nearest(tPt, tNodes)
	h, allowEdge := guide(cg, tNode, rt)
	onSettle := func(v graph.NodeID) bool {
		if cg.Has(v) {
			return true
		}
		r, ok := cg.RegionHint(v)
		if !ok {
			err = fmt.Errorf("base: node %d has no region hint", v)
			return false
		}
		if fetched[r] {
			return true // page already here; v was just a dangling ref
		}
		_, err = get(r, false)
		return err == nil
	}
	cost, path = cg.Search(sNode, tNode, h, allowEdge, onSettle)
	return cost, path, sNode, tNode, err
}

// SimulateFrontier replays the search against in-memory regions and returns
// how many region fetches it makes: the build-time plan derivation.
func SimulateFrontier(tree *kdtree.Tree, regions [][]RegionNode, directed bool, sPt, tPt geom.Point, guide Guide) (int, error) {
	fetches := 0
	_, _, _, _, err := frontierSearch(tree, directed, sPt, tPt,
		func(r kdtree.RegionID, _ bool) ([]RegionNode, error) {
			fetches++
			return regions[r], nil
		}, guide)
	return fetches, err
}

// FrontierQuery runs the search against the service: the two host regions
// in the plan's first PIR round, every later region in a round of its own;
// the session pads the rounds the search did not need.
func (s *Session) FrontierQuery(sPt, tPt geom.Point, lmDim, flagBytes int, guide Guide) (*Result, error) {
	if err := s.NextRound(); err != nil {
		return nil, err
	}
	fetch := func(r kdtree.RegionID, endpoint bool) ([]RegionNode, error) {
		if !endpoint {
			if err := s.NextRound(); err != nil {
				return nil, err
			}
		}
		return s.FetchRegion(FileData, r, lmDim, flagBytes)
	}
	cost, path, sNode, tNode, err := frontierSearch(s.Hdr.Tree, s.Hdr.Directed, sPt, tPt, fetch, guide)
	if err != nil {
		return nil, err
	}
	return s.Finish(cost, path, sNode, tNode)
}
