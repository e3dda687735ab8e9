package base

import (
	"math/rand"
	"testing"

	"repro/internal/border"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/pagefile"
	"repro/internal/precomp"
)

// BenchmarkClientAssemble is CI's client side of round 4 in isolation: for
// a fixed set of endpoint pairs, decode R_s, R_t and the regions of S_s,t
// into a pooled client graph, snap the endpoints and search. One op is one
// query's assembly and search; pages come from memory, so nothing but the
// client graph is timed.
func BenchmarkClientAssemble(b *testing.B) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.25)
	codec := &RegionCodec{G: g}
	part, err := kdtree.BuildPacked(g, codec.SizeFunc(), pagefile.DefaultPageSize)
	if err != nil {
		b.Fatal(err)
	}
	codec.Part = part
	fd := pagefile.NewFile(FileData, pagefile.DefaultPageSize)
	firstPage, err := BuildRegionData(fd, codec, 1)
	if err != nil {
		b.Fatal(err)
	}
	pre, err := precomp.Compute(border.Build(g, part), part, precomp.Options{Sets: true})
	if err != nil {
		b.Fatal(err)
	}
	hdr := &Header{NumRegions: part.NumRegions, Tree: part.Tree, RegionFirstPage: firstPage, ClusterPages: 1}

	// Per pair: its endpoints and the region pages CI fetches, in order.
	type query struct {
		s, t  graph.NodeID
		pages [][]byte
	}
	page := func(r kdtree.RegionID) []byte {
		p, err := fd.Page(int(firstPage[r]))
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	rng := rand.New(rand.NewSource(1))
	queries := make([]query, 32)
	for i := range queries {
		s, t := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
		rs, rt := part.RegionOf[s], part.RegionOf[t]
		q := query{s: s, t: t, pages: [][]byte{page(rs), page(rt)}}
		for _, r := range pre.Sets[precomp.PairIndex(part.NumRegions, rs, rt)] {
			if r != rs && r != rt {
				q.pages = append(q.pages, page(r))
			}
		}
		queries[i] = q
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		cg := borrowClientGraph()
		var cands [2][]graph.NodeID
		for k, p := range q.pages {
			ids, err := cg.addRegion(hdr, [][]byte{p})
			if err != nil {
				b.Fatal(err)
			}
			if k < 2 {
				cands[k] = ids
			}
		}
		sNode, tNode := cg.Nearest(g.Point(q.s), cands[0]), cg.Nearest(g.Point(q.t), cands[1])
		if cost, _ := cg.Dijkstra(sNode, tNode); cost < 0 {
			b.Fatal("negative cost")
		}
		cg.release()
	}
}
