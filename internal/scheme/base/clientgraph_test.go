package base

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/pagefile"
	"repro/internal/precomp"
)

// oracleDB is a generated network cut into region pages, held in the two
// forms the graphs under comparison take: the pages ClientGraph decodes, and
// the same pages decoded into RegionNodes for the reference.
type oracleDB struct {
	g       *graph.Graph
	hdr     *Header
	fd      *pagefile.File
	regions [][]RegionNode
}

type oracleConfig struct {
	compact          bool
	lmDim, flagBytes int
	clusterPages     int
}

func (c oracleConfig) String() string {
	return fmt.Sprintf("compact=%v/lm=%d/flags=%d/cluster=%d",
		c.compact, c.lmDim, c.flagBytes, c.clusterPages)
}

func newOracleDB(t *testing.T, c oracleConfig, seed int64) *oracleDB {
	t.Helper()
	g := gen.Generate(gen.Spec{Nodes: 300, Edges: 345, Seed: seed})
	codec := &RegionCodec{G: g, Compact: c.compact, FlagBytes: c.flagBytes}
	if c.lmDim > 0 {
		codec.Landmarks = graph.BuildLandmarks(g, graph.SelectLandmarks(g, c.lmDim)).Dist
		codec.LandmarkDim = c.lmDim
	}
	if c.flagBytes > 0 {
		// Arbitrary, asymmetric bits: the graphs must agree on whatever the
		// pages say, not only on build-time symmetrized flags.
		rng := rand.New(rand.NewSource(seed))
		flags := make([][][]byte, g.NumNodes())
		for v := range flags {
			for range g.Adj(graph.NodeID(v)) {
				fb := make([]byte, c.flagBytes)
				rng.Read(fb)
				flags[v] = append(flags[v], fb)
			}
		}
		codec.EdgeFlags = func(from graph.NodeID, i int) []byte { return flags[from][i] }
	}
	const pageSize = 1024
	part, err := kdtree.BuildPacked(g, codec.SizeFunc(), pageSize*c.clusterPages)
	if err != nil {
		t.Fatal(err)
	}
	codec.Part = part
	fd := pagefile.NewFile(FileData, pageSize)
	firstPage, err := BuildRegionData(fd, codec, c.clusterPages)
	if err != nil {
		t.Fatal(err)
	}
	compact := int64(0)
	if c.compact {
		compact = 1
	}
	db := &oracleDB{g: g, fd: fd, hdr: &Header{
		NumRegions:      part.NumRegions,
		Tree:            part.Tree,
		RegionFirstPage: firstPage,
		ClusterPages:    c.clusterPages,
		Params:          map[string]int64{ParamLMDim: int64(c.lmDim), ParamFlagBy: int64(c.flagBytes), ParamCompact: compact},
	}}
	for r := 0; r < part.NumRegions; r++ {
		nodes, err := DecodeRegionMode(slices.Concat(db.pages(t, kdtree.RegionID(r))...), c.lmDim, c.flagBytes, c.compact)
		if err != nil {
			t.Fatal(err)
		}
		db.regions = append(db.regions, nodes)
	}
	return db
}

// pages returns region r's cluster as fetched.
func (db *oracleDB) pages(t *testing.T, r kdtree.RegionID) [][]byte {
	idx, err := db.hdr.regionPages(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, p := range idx {
		page, err := db.fd.Page(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, page)
	}
	return out
}

// guideGraph is what the LM and AF guides read, on either graph.
type guideGraph interface {
	LMVector(graph.NodeID) []float64
	EdgeFlags(u, v graph.NodeID) []byte
}

// landmarkBound is LM's heuristic (lm.landmarkGuide) over either graph.
func landmarkBound(cg guideGraph, tNode graph.NodeID) func(graph.NodeID) float64 {
	dstVec := cg.LMVector(tNode)
	return func(v graph.NodeID) float64 {
		vec := cg.LMVector(v)
		if vec == nil || dstVec == nil {
			return 0
		}
		bound := 0.0
		for k := range dstVec {
			bound = max(bound, math.Abs(vec[k]-dstVec[k]))
		}
		return bound
	}
}

// flagFilter is AF's edge filter (af.flagGuide) over either graph.
func flagFilter(cg guideGraph, rt kdtree.RegionID) func(graph.NodeID, graph.HalfEdge) bool {
	return func(from graph.NodeID, he graph.HalfEdge) bool {
		fb := cg.EdgeFlags(from, he.To)
		if fb == nil {
			return true
		}
		return fb[int(rt)/8]&(1<<(uint(rt)%8)) != 0
	}
}

// refFrontier is frontierSearch as it ran on the map-based graph.
func refFrontier(db *oracleDB, sPt, tPt geom.Point, lm, af bool) (cost float64, path []graph.NodeID, sNode, tNode graph.NodeID, fetches []kdtree.RegionID) {
	rs, rt := db.hdr.Tree.Locate(sPt), db.hdr.Tree.Locate(tPt)
	cg := newRefGraph()
	fetched := map[kdtree.RegionID]bool{}
	get := func(r kdtree.RegionID) []RegionNode {
		fetches = append(fetches, r)
		fetched[r] = true
		cg.AddRegionNodes(db.regions[r])
		return db.regions[r]
	}
	sNodes, tNodes := get(rs), get(rt)
	sNode, tNode = cg.Nearest(sPt, sNodes), cg.Nearest(tPt, tNodes)
	var h func(graph.NodeID) float64
	var allow func(graph.NodeID, graph.HalfEdge) bool
	if lm {
		h = landmarkBound(cg, tNode)
	}
	if af {
		allow = flagFilter(cg, rt)
	}
	cost, path = cg.Search(sNode, tNode, h, allow, func(v graph.NodeID) bool {
		if cg.Has(v) {
			return true
		}
		r, ok := cg.RegionHint(v)
		if !ok {
			return false
		}
		if !fetched[r] {
			get(r)
		}
		return true
	})
	return cost, path, sNode, tNode, fetches
}

// TestClientGraphMatchesReference holds ClientGraph to the map-based graph
// it replaced: over random region subsets of generated networks, plain and
// compact pages, with PI/HY subgraph edges merged
// in, LM's landmark heuristic, AF's flag filter, and LM/AF's frontier search
// fetching regions from onSettle mid-search, both graphs must return the
// same cost and the same path node for node, and agree on every node's
// record, point, hint and landmark vector.
func TestClientGraphMatchesReference(t *testing.T) {
	configs := []oracleConfig{
		{clusterPages: 1},
		{compact: true, clusterPages: 1},
		{lmDim: 3, clusterPages: 1},
		{flagBytes: 2, clusterPages: 2},
		{compact: true, lmDim: 3, clusterPages: 1},
		{lmDim: 3, clusterPages: 2},
		{compact: true, flagBytes: 2, clusterPages: 2},
	}
	paths := 0 // comparisons where both graphs found a path of 3+ nodes
	for ci, c := range configs {
		t.Run(c.String(), func(t *testing.T) {
			db := newOracleDB(t, c, int64(ci+1))
			rng := rand.New(rand.NewSource(int64(ci + 100)))
			n := db.g.NumNodes()
			for trial := 0; trial < 30; trial++ {
				paths += staticCase(t, db, rng, c)
				s, d := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				paths += frontierCase(t, db, db.g.Point(s), db.g.Point(d), c.lmDim > 0, c.flagBytes > 0)
			}
		})
	}
	// Most random endpoints share no fetched component; the test only
	// means something if enough of them do.
	if paths < 300 {
		t.Fatalf("only %d comparisons found a real path", paths)
	}
	t.Logf("%d comparisons found a path of 3+ nodes", paths)
}

// staticCase assembles a random region subset (plus random subgraph edges,
// some repeating region edges at other weights) into both graphs and
// compares every search the schemes run over a fixed graph. It returns how
// many searches found a path of 3+ nodes.
func staticCase(t *testing.T, db *oracleDB, rng *rand.Rand, c oracleConfig) (paths int) {
	t.Helper()
	cg := borrowClientGraph()
	defer cg.release()
	ref := newRefGraph()
	var fetched []kdtree.RegionID
	for r := range db.regions {
		if rng.Intn(3) == 0 {
			fetched = append(fetched, kdtree.RegionID(r))
		}
	}
	if len(fetched) == 0 {
		fetched = append(fetched, 0)
	}
	fetched = append(fetched, fetched[0]) // CI fetches R_s twice when R_s = R_t
	var cands [][]graph.NodeID
	for _, r := range fetched {
		ids, err := cg.addRegion(db.hdr, db.pages(t, r))
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, ids)
		ref.AddRegionNodes(db.regions[r])
	}
	if rng.Intn(2) == 0 {
		var edges []precomp.EdgeRef
		for k := 0; k < 40; k++ {
			u := graph.NodeID(rng.Intn(db.g.NumNodes()))
			for _, he := range db.g.Adj(u) {
				w := he.W
				if rng.Intn(4) == 0 {
					w *= 1.5 // a duplicate at another weight: the first one must win
				}
				edges = append(edges, precomp.EdgeRef{From: u, To: he.To, W: w})
			}
		}
		if err := cg.AddSubgraphEdges(edges); err != nil {
			t.Fatal(err)
		}
		ref.AddSubgraphEdges(edges)
	}

	if cg.NumNodes() != ref.NumNodes() {
		t.Fatalf("%d node records, reference %d", cg.NumNodes(), ref.NumNodes())
	}
	for v := graph.NodeID(0); v < graph.NodeID(db.g.NumNodes()); v++ {
		hint, hinted := cg.RegionHint(v)
		rhint, rhinted := ref.RegionHint(v)
		if cg.Has(v) != ref.Has(v) || cg.Point(v) != ref.Point(v) || hint != rhint || hinted != rhinted ||
			!slices.Equal(cg.LMVector(v), ref.LMVector(v)) {
			t.Fatalf("node %d differs from the reference", v)
		}
	}
	for i, r := range fetched {
		p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		if got, want := cg.Nearest(p, cands[i]), ref.Nearest(p, db.regions[r]); got != want {
			t.Fatalf("Nearest among region %d: %d, reference %d", r, got, want)
		}
	}

	// Endpoints: mostly fetched records, sometimes a bare neighbour id or a
	// node the graph never met.
	pick := func() graph.NodeID {
		if rng.Intn(5) == 0 {
			return graph.NodeID(rng.Intn(db.g.NumNodes()))
		}
		ids := cands[rng.Intn(len(cands))]
		if len(ids) == 0 {
			return 0
		}
		return ids[rng.Intn(len(ids))]
	}
	for k := 0; k < 4; k++ {
		s, d := pick(), pick()
		paths += sameSearch(t, "Dijkstra", result(cg.Dijkstra(s, d)), result(ref.Dijkstra(s, d)))
		if c.lmDim > 0 {
			paths += sameSearch(t, "LM search",
				result(cg.Search(s, d, landmarkBound(cg, d), nil, nil)),
				result(ref.Search(s, d, landmarkBound(ref, d), nil, nil)))
		}
		if c.flagBytes > 0 {
			rt := kdtree.RegionID(rng.Intn(len(db.regions)))
			paths += sameSearch(t, "AF search",
				result(cg.Search(s, d, nil, flagFilter(cg, rt), nil)),
				result(ref.Search(s, d, nil, flagFilter(ref, rt), nil)))
		}
	}
	return paths
}

// searchResult is one search's answer.
type searchResult struct {
	cost float64
	path []graph.NodeID
}

func result(cost float64, path []graph.NodeID) searchResult { return searchResult{cost, path} }

// sameSearch fails unless got and the reference's want agree exactly; it
// returns 1 if they found a path of 3+ nodes.
func sameSearch(t *testing.T, what string, got, want searchResult) int {
	t.Helper()
	if got.cost != want.cost || !slices.Equal(got.path, want.path) {
		t.Fatalf("%s: cost %v path %v; reference cost %v path %v", what, got.cost, got.path, want.cost, want.path)
	}
	if len(got.path) > 2 {
		return 1
	}
	return 0
}

// frontierCase runs LM/AF's frontier search — region fetches from onSettle
// in the middle of the search — on both graphs.
func frontierCase(t *testing.T, db *oracleDB, sPt, tPt geom.Point, lm, af bool) int {
	t.Helper()
	cg := borrowClientGraph()
	defer cg.release()
	var fetches []kdtree.RegionID
	cost, path, sNode, tNode, err := frontierSearch(db.hdr, cg, sPt, tPt,
		func(_ bool, regions ...kdtree.RegionID) ([][]graph.NodeID, error) {
			out := make([][]graph.NodeID, len(regions))
			for i, r := range regions {
				fetches = append(fetches, r)
				var err error
				if out[i], err = cg.addRegion(db.hdr, db.pages(t, r)); err != nil {
					return nil, err
				}
			}
			return out, nil
		},
		func(cg *ClientGraph, tNode graph.NodeID, rt kdtree.RegionID) (func(graph.NodeID) float64, func(graph.NodeID, graph.HalfEdge) bool) {
			var h func(graph.NodeID) float64
			var allow func(graph.NodeID, graph.HalfEdge) bool
			if lm {
				h = landmarkBound(cg, tNode)
			}
			if af {
				allow = flagFilter(cg, rt)
			}
			return h, allow
		})
	if err != nil {
		t.Fatal(err)
	}
	refCost, refPath, refS, refT, refFetches := refFrontier(db, sPt, tPt, lm, af)
	if sNode != refS || tNode != refT || !slices.Equal(fetches, refFetches) {
		t.Fatalf("frontier %v→%v: snapped %d→%d fetching %v; reference %d→%d fetching %v",
			sPt, tPt, sNode, tNode, fetches, refS, refT, refFetches)
	}
	return sameSearch(t, "frontier search", result(cost, path), result(refCost, refPath))
}
