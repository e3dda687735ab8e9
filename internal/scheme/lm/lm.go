// Package lm implements the Landmark baseline of §4: the ALT pre-computation
// of Goldberg & Harrelson adapted to the private setting. Every node's
// record carries a vector of shortest-path distances to a set of anchor
// nodes; the client runs A* guided by the landmark triangle-inequality
// bound, fetching one region page per round as the search expands into new
// regions, and padding with dummy retrievals up to the fixed plan.
//
// The paper derives the page quota by running all V² queries offline; that
// is quadratic, so the quota comes from a large sampled workload plus
// extremal pairs, with a safety margin on top.
package lm

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/scheme/base"
)

// Build pre-processes the network into an LM database with cfg.Landmarks
// anchors (Figure 5's tuning knob; 5 were optimal on Argentina). The page
// quota is derived from cfg.DeriveQueries pairs sampled from cfg.Seed,
// replayed together with the pairs of the network's extremal nodes. cfg's
// zero fields take their defaults; cfg.Scheme is LM or empty, and Build
// refuses any other.
func Build(g *graph.Graph, cfg base.Config) (*lbs.Database, error) {
	cfg, err := cfg.ResolveFor(base.LM)
	if err != nil {
		return nil, err
	}
	anchors := graph.SelectLandmarks(g, cfg.Landmarks)
	lms := graph.BuildLandmarks(g, anchors)

	codec := &base.RegionCodec{G: g, Landmarks: lms.Dist, LandmarkDim: len(anchors)}
	part, err := base.Partition(codec, cfg)
	if err != nil {
		return nil, fmt.Errorf("lm: partitioning: %w", err)
	}

	fd := pagefile.NewFile(base.FileData, cfg.PageSize)
	firstPage, err := base.BuildRegionData(fd, codec, 1)
	if err != nil {
		return nil, fmt.Errorf("lm: region data: %w", err)
	}

	// Derive the plan: replay the exact client algorithm against the region
	// pages, counting fetched pages; the first round fetches the two
	// endpoint regions, every further round one page (§4).
	hdr := &base.Header{
		Scheme:               base.LM,
		NumRegions:           part.NumRegions,
		Tree:                 part.Tree,
		RegionFirstPage:      firstPage,
		ClusterPages:         1,
		LookupEntriesPerPage: 1,
		Params:               map[string]int64{base.ParamLMDim: int64(len(anchors))},
	}
	qp, maxPages, err := base.DerivePlan(g, hdr, fd, landmarkGuide, cfg, cornerPairs(g)...)
	if err != nil {
		return nil, err
	}
	hdr.Plan = qp
	hdr.Params["maxPages"] = int64(maxPages)
	return hdr.Database(fd), nil
}

// cornerPairs pairs the extremal nodes (bounding-box corners) with each
// other: pairs that tend to maximize the search footprint, so the plan
// derivation replays them beside its sample.
func cornerPairs(g *graph.Graph) [][2]graph.NodeID {
	var pairs [][2]graph.NodeID
	cs := corners(g)
	for _, s := range cs {
		for _, t := range cs {
			pairs = append(pairs, [2]graph.NodeID{s, t})
		}
	}
	return pairs
}

// corners picks extremal nodes (bounding-box corners) whose pairs tend to
// maximize the search footprint.
func corners(g *graph.Graph) []graph.NodeID {
	if g.NumNodes() == 0 {
		return nil
	}
	ids := make([]graph.NodeID, 4)
	best := [4]float64{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
	for i := 0; i < g.NumNodes(); i++ {
		p := g.Point(graph.NodeID(i))
		if p.X+p.Y < best[0] {
			best[0], ids[0] = p.X+p.Y, graph.NodeID(i)
		}
		if p.X-p.Y < best[1] {
			best[1], ids[1] = p.X-p.Y, graph.NodeID(i)
		}
		if p.X+p.Y > best[2] {
			best[2], ids[2] = p.X+p.Y, graph.NodeID(i)
		}
		if p.X-p.Y > best[3] {
			best[3], ids[3] = p.X-p.Y, graph.NodeID(i)
		}
	}
	return ids
}

// landmarkGuide is LM's part of the frontier search: A* under the landmark
// triangle-inequality bound towards tNode, every edge allowed.
func landmarkGuide(cg *base.ClientGraph, tNode graph.NodeID, _ kdtree.RegionID) (func(graph.NodeID) float64, func(graph.NodeID, graph.HalfEdge) bool) {
	dstVec := cg.LMVector(tNode)
	return func(v graph.NodeID) float64 {
		vec := cg.LMVector(v)
		if vec == nil || dstVec == nil {
			return 0
		}
		bound := 0.0
		for k := range dstVec {
			if d := math.Abs(vec[k] - dstVec[k]); d > bound {
				bound = d
			}
		}
		return bound
	}, nil
}

// Query answers one shortest path query against an LM server, following the
// fixed plan with dummy padding.
func Query(ctx context.Context, svc lbs.Service, sPt, tPt geom.Point) (*base.Result, error) {
	ses, err := base.Open(ctx, svc, base.LM)
	if err != nil {
		return nil, err
	}
	return ses.FrontierQuery(sPt, tPt, landmarkGuide)
}
