package base

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/pagefile"
	"repro/internal/plan"
)

// fetchRegionsFn decodes regions into the search's graph, from whatever
// medium backs the search — the F_d file during plan derivation, a Session
// at query time — and returns each one's record ids. endpoints marks the
// two host-region fetches of the plan's first round; every later region
// opens a round of its own (§4).
type fetchRegionsFn func(endpoints bool, regions ...kdtree.RegionID) ([][]graph.NodeID, error)

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
func frontierSearch(hdr *Header, cg *ClientGraph, sPt, tPt geom.Point, fetch fetchRegionsFn, guide Guide) (
	cost float64, path []graph.NodeID, sNode, tNode graph.NodeID, err error,
) {
	rs, rt := hdr.Tree.Locate(sPt), hdr.Tree.Locate(tPt)
	fetched := make([]bool, len(hdr.RegionFirstPage))
	// The plan's first round holds two fetches even when rt == rs.
	hosts, err := fetch(true, rs, rt)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	fetched[rs], fetched[rt] = true, true // in range: the fetch succeeded
	sNode = cg.Nearest(sPt, hosts[0])
	tNode = cg.Nearest(tPt, hosts[1])
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
		if int(r) < len(fetched) && fetched[r] {
			return true // page already here; v was just a dangling ref
		}
		if _, err = fetch(false, r); err != nil {
			return false
		}
		fetched[r] = true
		return true
	}
	cost, path = cg.Search(sNode, tNode, h, allowEdge, onSettle)
	return cost, path, sNode, tNode, err
}

// SamplePairs draws count endpoint pairs uniformly over n nodes from seed,
// source then destination: the workload a frontier plan is fitted to, and
// the workload the reproduction times.
func SamplePairs(n, count int, seed int64) [][2]graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]graph.NodeID, count)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	return pairs
}

// DerivePlan fits LM's and AF's public plan to the network (§4). The paper
// replays all V² queries offline; that is quadratic, so DerivePlan replays
// the search against fd, the database's region-data file, for
// c.DeriveQueries pairs sampled from c.Seed and the extra ones, takes the
// most region fetches any of them makes (at least the two host regions)
// times c.SafetyMargin, rounded up and capped at the region count, and
// lays that out as the two host regions' clusters in the first round and
// one cluster in each round after. It returns the plan and the cluster
// count it covers. hdr describes the database as the client will read it;
// its plan is not consulted.
func DerivePlan(g *graph.Graph, hdr *Header, fd pagefile.Reader, guide Guide, c Config, extra ...[2]graph.NodeID) (plan.Plan, int, error) {
	most := 2
	for _, pair := range append(SamplePairs(g.NumNodes(), c.DeriveQueries, c.Seed), extra...) {
		n, err := simulateFrontier(hdr, fd, g.Point(pair[0]), g.Point(pair[1]), guide)
		if err != nil {
			return plan.Plan{}, 0, err
		}
		most = max(most, n)
	}
	clusters := min(int(math.Ceil(float64(most)*max(c.SafetyMargin, 1))), hdr.NumRegions)
	rounds := []plan.Round{{Fetches: []plan.Fetch{{File: FileData, Count: 2 * hdr.ClusterPages}}}}
	for i := 2; i < clusters; i++ {
		rounds = append(rounds, plan.Round{Fetches: []plan.Fetch{{File: FileData, Count: hdr.ClusterPages}}})
	}
	return plan.Plan{Rounds: rounds}, clusters, nil
}

// simulateFrontier replays the search against fd and returns how many
// region fetches it makes.
func simulateFrontier(hdr *Header, fd pagefile.Reader, sPt, tPt geom.Point, guide Guide) (int, error) {
	cg := borrowClientGraph()
	defer cg.release()
	var idx []int
	pages := make([][]byte, hdr.ClusterPages)
	fetches := 0
	_, _, _, _, err := frontierSearch(hdr, cg, sPt, tPt,
		func(_ bool, regions ...kdtree.RegionID) ([][]graph.NodeID, error) {
			out := make([][]graph.NodeID, len(regions))
			for i, r := range regions {
				fetches++
				var err error
				if idx, err = hdr.regionPages(r, idx); err != nil {
					return nil, err
				}
				for j, p := range idx {
					if pages[j], err = fd.Page(p); err != nil {
						return nil, err
					}
				}
				if out[i], err = cg.addRegion(hdr, pages); err != nil {
					return nil, err
				}
			}
			return out, nil
		}, guide)
	return fetches, err
}

// FrontierQuery runs the search against the service: the two host regions
// in the plan's first PIR round, every later region in a round of its own;
// Finish sends the rounds the search did not need, padded, as one batch.
func (s *Session) FrontierQuery(sPt, tPt geom.Point, guide Guide) (*Result, error) {
	if err := s.NextRound(); err != nil {
		return nil, err
	}
	fetch := func(endpoints bool, regions ...kdtree.RegionID) ([][]graph.NodeID, error) {
		if !endpoints {
			if err := s.NextRound(); err != nil {
				return nil, err
			}
		}
		_, nodes, err := s.FetchRegions(FileData, regions)
		return nodes, err
	}
	cost, path, sNode, tNode, err := frontierSearch(s.Hdr, s.Graph(), sPt, tPt, fetch, guide)
	if err != nil {
		return nil, err
	}
	return s.Finish(cost, path, sNode, tNode)
}
