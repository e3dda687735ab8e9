package base

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/pagefile"
	"repro/internal/precomp"
)

// isolatedNodesPage is a compact region page of 40 degree-0 nodes with ids
// below 128: 18-byte records, 722 bytes in all — the smallest records the
// layout has.
func isolatedNodesPage() []byte {
	g := graph.NewUndirected()
	members := make([]graph.NodeID, 40)
	for i := range members {
		members[i] = g.AddNode(geom.Point{X: float64(i), Y: 1})
	}
	part := &kdtree.Partition{NumRegions: 1, RegionOf: make([]kdtree.RegionID, 40), Members: [][]graph.NodeID{members}}
	return (&RegionCodec{G: g, Part: part, Compact: true}).EncodeRegion(0)
}

// seedRegionPages returns real region pages of a small network in the
// layouts the schemes use — CI's, with LM's landmark vectors, with AF's Arc
// flags — each plain and compact.
func seedRegionPages(tb testing.TB) (pages [][]byte, lmDims, flagBytes []int, compact []bool) {
	g := gen.Generate(gen.Spec{Nodes: 200, Edges: 230, Seed: 5})
	for _, c := range []RegionCodec{{}, {Compact: true}, {LandmarkDim: 2}, {LandmarkDim: 2, Compact: true}, {FlagBytes: 1}, {FlagBytes: 1, Compact: true}} {
		c.G = g
		if c.LandmarkDim > 0 {
			c.Landmarks = graph.BuildLandmarks(g, graph.SelectLandmarks(g, c.LandmarkDim)).Dist
		}
		if c.FlagBytes > 0 {
			c.EdgeFlags = func(graph.NodeID, int) []byte { return []byte{0xA5} }
		}
		part, err := kdtree.BuildPacked(g, c.SizeFunc(), 1024)
		if err != nil {
			tb.Fatal(err)
		}
		c.Part = part
		for r := 0; r < part.NumRegions; r += 3 {
			pages = append(pages, c.EncodeRegion(kdtree.RegionID(r)))
			lmDims, flagBytes, compact = append(lmDims, c.LandmarkDim), append(flagBytes, c.FlagBytes), append(compact, c.Compact)
		}
	}
	return pages, lmDims, flagBytes, compact
}

// FuzzDecodeRegion feeds region pages to the decoder the query path uses,
// straight into a client graph. A malformed page must come back as an
// error — never a panic — and whatever the graph holds afterwards must be
// bounded by the page's bytes, not by a count or id the page claims.
func FuzzDecodeRegion(f *testing.F) {
	pages, lmDims, flagBytes, compact := seedRegionPages(f)
	for i, p := range pages {
		f.Add(p, uint8(lmDims[i]), uint8(flagBytes[i]), compact[i])
	}
	f.Add(isolatedNodesPage(), uint8(0), uint8(0), true)
	f.Add([]byte{0xff, 0xff}, uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, lmDim, flagBy uint8, compact bool) {
		hdr := &Header{
			RegionFirstPage: make([]uint32, 64),
			ClusterPages:    1,
			Params:          map[string]int64{ParamLMDim: int64(lmDim % 8), ParamFlagBy: int64(flagBy % 4)},
		}
		if compact {
			hdr.Params[ParamCompact] = 1
		}
		cg := NewClientGraph()
		ids, err := cg.addRegion(hdr, [][]byte{data})
		// Every node the graph numbered came from a record or a half-edge
		// of at least 11 bytes, each half-edge added at most two edges, and
		// the id index stops at the database's bound.
		if len(cg.nodes) > len(data)/11+1 || len(cg.edges) > 2*(len(data)/11) || len(cg.index) > int(cg.maxID)+1 {
			t.Fatalf("%d-byte page grew the graph to %d nodes, %d edges, %d-entry index",
				len(data), len(cg.nodes), len(cg.edges), len(cg.index))
		}
		if err == nil && len(ids) > 0 {
			cg.Dijkstra(ids[0], ids[len(ids)-1])
		}
	})
}

// seedIndex builds a compressed network index of region sets and subgraphs
// over 512-byte pages, so most records are deltas of an earlier record of
// their page, and returns its file and what IndexBuilder.Finish returned.
func seedIndex(tb testing.TB) (file *pagefile.File, spans []pagefile.Span, ords []uint16, maxSpan int) {
	g := gen.Generate(gen.Spec{Nodes: 200, Edges: 230, Seed: 5})
	file = pagefile.NewFile(FileIndex, 512)
	b := NewIndexBuilder(file, 16)
	for i := 0; i < 12; i++ {
		set := []kdtree.RegionID{kdtree.RegionID(i), kdtree.RegionID(i + 3), 20}
		if err := b.AddSet(set, true); err != nil {
			tb.Fatal(err)
		}
		var edges []precomp.EdgeRef
		for u := graph.NodeID(i); u < graph.NodeID(i+6); u++ {
			for _, he := range g.Adj(u) {
				edges = append(edges, precomp.EdgeRef{From: u, To: he.To, W: he.W})
			}
		}
		if err := b.AddGraph(edges, true); err != nil {
			tb.Fatal(err)
		}
	}
	spans, ords, maxSpan = b.Finish()
	return file, spans, ords, maxSpan
}

// FuzzDecodeIndexRecord feeds network-index pages to the record decoder. A
// malformed page must come back as an error, and a decoded record cannot
// hold more regions or edges than the page has bytes for.
func FuzzDecodeIndexRecord(f *testing.F) {
	file, _, _, _ := seedIndex(f)
	for p := 0; p < file.NumPages(); p++ {
		page, err := file.Page(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(page, uint8(0))
		f.Add(page, uint8(3))
	}
	f.Add([]byte{7, 0, 0, 0, KindSetLiteral, 0xff, 0xff}, uint8(0))
	f.Fuzz(func(t *testing.T, page []byte, recIdx uint8) {
		if len(page) == 0 {
			return
		}
		rec, err := DecodeIndexRecord([][]byte{page}, 0, int(recIdx%8))
		if err != nil {
			return
		}
		if len(rec.Set) > len(page)/2 || len(rec.Edges) > len(page)/16 {
			t.Fatalf("%d-byte page decoded to %d regions, %d edges", len(page), len(rec.Set), len(rec.Edges))
		}
	})
}
