// Package af implements the Arc-flag baseline of §4 (Köhler, Möhring &
// Schilling adapted to the private setting): the network is cut into a small
// fixed number of regions; every edge carries one flag bit per region, set
// when the edge lies on some shortest path into that region. Queries expand
// only edges flagged for the destination region, fetching each region's
// fixed-size page cluster as the search reaches it, padded to a fixed plan.
package af

import (
	"context"
	"fmt"
	"math"

	"repro/internal/border"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/scheme/base"
)

// Build pre-processes the network into an AF database of cfg.Regions
// regions: the bit-vector length kept with every edge (the paper's tuning
// knob; 8 was optimal on Argentina). The region-cluster quota is derived
// from cfg.DeriveQueries pairs sampled from cfg.Seed. cfg's zero fields
// take their defaults; cfg.Scheme is AF or empty, and Build refuses any
// other.
func Build(g *graph.Graph, cfg base.Config) (*lbs.Database, error) {
	cfg, err := cfg.ResolveFor(base.AF)
	if err != nil {
		return nil, err
	}
	flagBytes := (cfg.Regions + 7) / 8
	codec := &base.RegionCodec{G: g, FlagBytes: flagBytes}
	part, err := kdtree.BuildFixedRegions(g, codec.SizeFunc(), cfg.Regions)
	if err != nil {
		return nil, fmt.Errorf("af: partitioning: %w", err)
	}
	codec.Part = part

	flags, err := computeFlags(g, part, flagBytes)
	if err != nil {
		return nil, err
	}
	codec.EdgeFlags = func(from graph.NodeID, adjIdx int) []byte { return flags[from][adjIdx] }

	// Fixed pages per region (§4): the largest region's encoding decides.
	maxBytes := 0
	for r := 0; r < part.NumRegions; r++ {
		if n := len(codec.EncodeRegion(kdtree.RegionID(r))); n > maxBytes {
			maxBytes = n
		}
	}
	pagesPerRegion := (maxBytes + cfg.PageSize - 1) / cfg.PageSize
	fd := pagefile.NewFile(base.FileData, cfg.PageSize)
	firstPage, err := base.BuildRegionData(fd, codec, pagesPerRegion)
	if err != nil {
		return nil, fmt.Errorf("af: region data: %w", err)
	}

	// Plan derivation on a sampled workload, in region clusters.
	hdr := &base.Header{
		Scheme:               base.AF,
		NumRegions:           part.NumRegions,
		Tree:                 part.Tree,
		RegionFirstPage:      firstPage,
		ClusterPages:         pagesPerRegion,
		LookupEntriesPerPage: 1,
		Params:               map[string]int64{base.ParamFlagBy: int64(flagBytes)},
	}
	qp, maxClusters, err := base.DerivePlan(g, hdr, fd, flagGuide, cfg)
	if err != nil {
		return nil, err
	}
	hdr.Plan = qp
	hdr.Params["maxClusters"] = int64(maxClusters)
	return &lbs.Database{
		Scheme: string(base.AF),
		Header: hdr.Encode(),
		Files:  []pagefile.Reader{fd},
		Plan:   qp,
	}, nil
}

// computeFlags derives, for every half-edge, the bit-vector over regions:
// bit j is set when the edge lies on some shortest path into region j (or
// touches region j directly). Computation runs one Dijkstra per border node
// (§4's pre-computation), with over-flagging on ties — harmless for
// correctness.
func computeFlags(g *graph.Graph, part *kdtree.Partition, flagBytes int) ([][][]byte, error) {
	flags := make([][][]byte, g.NumNodes())
	for v := range flags {
		adj := g.Adj(graph.NodeID(v))
		flags[v] = make([][]byte, len(adj))
		for i := range flags[v] {
			flags[v][i] = make([]byte, flagBytes)
		}
	}
	setFlag := func(u graph.NodeID, adjIdx int, region kdtree.RegionID) {
		flags[u][adjIdx][region/8] |= 1 << (uint(region) % 8)
	}
	// Edges touching a region are flagged for it.
	for u := 0; u < g.NumNodes(); u++ {
		for i, he := range g.Adj(graph.NodeID(u)) {
			setFlag(graph.NodeID(u), i, part.RegionOf[u])
			setFlag(graph.NodeID(u), i, part.RegionOf[he.To])
		}
	}
	aug := border.Build(g, part)
	for j := 0; j < part.NumRegions; j++ {
		for _, bi := range aug.ByRegion[j] {
			b := aug.Borders[bi]
			tree := graph.Dijkstra(aug.G, b.ID)
			// dist[v] is the shortest v→border distance in the original
			// graph (the network is undirected). Edge (u,v) is on a
			// shortest path toward the border when dist[v] + w == dist[u].
			for u := 0; u < g.NumNodes(); u++ {
				du := tree.Dist[u]
				if math.IsInf(du, 1) {
					continue
				}
				for i, he := range g.Adj(graph.NodeID(u)) {
					dv := tree.Dist[he.To]
					if math.IsInf(dv, 1) {
						continue
					}
					if dv+he.W <= du+1e-9*(1+du) {
						setFlag(graph.NodeID(u), i, kdtree.RegionID(j))
					}
				}
			}
		}
	}
	// Symmetrize so the client may reuse a page's flags for the reverse
	// direction (the reverse lives in an unfetched page otherwise).
	idx := map[[2]graph.NodeID]int{}
	for u := 0; u < g.NumNodes(); u++ {
		for i, he := range g.Adj(graph.NodeID(u)) {
			idx[[2]graph.NodeID{graph.NodeID(u), he.To}] = i
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		for i, he := range g.Adj(graph.NodeID(u)) {
			if ri, ok := idx[[2]graph.NodeID{he.To, graph.NodeID(u)}]; ok {
				for byteIdx := range flags[u][i] {
					merged := flags[u][i][byteIdx] | flags[he.To][ri][byteIdx]
					flags[u][i][byteIdx] = merged
					flags[he.To][ri][byteIdx] = merged
				}
			}
		}
	}
	return flags, nil
}

// flagGuide is AF's part of the frontier search: plain Dijkstra restricted
// to the edges flagged for the destination region rt.
func flagGuide(cg *base.ClientGraph, _ graph.NodeID, rt kdtree.RegionID) (func(graph.NodeID) float64, func(graph.NodeID, graph.HalfEdge) bool) {
	return nil, func(from graph.NodeID, he graph.HalfEdge) bool {
		fb := cg.EdgeFlags(from, he.To)
		if fb == nil {
			return true // unknown flags: be permissive, stay correct
		}
		return fb[int(rt)/8]&(1<<(uint(rt)%8)) != 0
	}
}

// Query answers one shortest path query against an AF server.
func Query(ctx context.Context, svc lbs.Service, sPt, tPt geom.Point) (*base.Result, error) {
	ses, err := base.Open(ctx, svc, base.AF)
	if err != nil {
		return nil, err
	}
	return ses.FrontierQuery(sPt, tPt, flagGuide)
}
