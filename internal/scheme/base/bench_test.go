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

// BenchmarkClientAssemble is CI's client side of rounds 3 and 4 in
// isolation, on Oldenburg at paper size: for a fixed set of endpoint pairs,
// decode the pair's record from its F_i window, then R_s, R_t and the
// regions of the decoded — delta-inflated — set into a pooled client graph,
// snap the endpoints and search. F_i is built as ci.Build builds it, with
// §5.5 compression, so the walk to the record and the inflated set are the
// ones real queries decode. One op is one query's decode and search; pages
// come from memory, so nothing but the client is timed.
func BenchmarkClientAssemble(b *testing.B) {
	g := gen.GeneratePreset(gen.Oldenburg, 1)
	codec := &RegionCodec{G: g}
	part, err := kdtree.BuildPacked(g, codec.SizeFunc(), codec.Capacity(pagefile.DefaultPageSize))
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
	fi := pagefile.NewFile(FileIndex, pagefile.DefaultPageSize)
	ib := NewIndexBuilder(fi, max(pre.MaxSetSize, 1))
	for _, set := range pre.Sets {
		if err := ib.AddSet(set, true); err != nil {
			b.Fatal(err)
		}
	}
	spans, ords, maxSpan := ib.Finish()
	hdr := &Header{NumRegions: part.NumRegions, Tree: part.Tree, RegionFirstPage: firstPage, ClusterPages: 1}

	// Per pair: its endpoints and regions, the F_i window holding its
	// record and the record's place in it.
	type query struct {
		s, t   graph.NodeID
		rs, rt kdtree.RegionID
		window [][]byte
		off    int
		ord    int
	}
	page := func(f *pagefile.File, p int) []byte {
		data, err := f.Page(p)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	rng := rand.New(rand.NewSource(1))
	queries := make([]query, 32)
	for i := range queries {
		s, t := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
		q := query{s: s, t: t, rs: part.RegionOf[s], rt: part.RegionOf[t]}
		k := precomp.PairIndex(part.NumRegions, q.rs, q.rt)
		pages, off := IndexWindow(LookupEntry{Page: uint32(spans[k].Page), RecIndex: ords[k]}, maxSpan, fi.NumPages())
		for _, p := range pages {
			q.window = append(q.window, page(fi, p))
		}
		q.off, q.ord = off, int(ords[k])
		queries[i] = q
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		rec, err := DecodeIndexRecord(q.window, q.off, q.ord)
		if err != nil {
			b.Fatal(err)
		}
		cg := borrowClientGraph()
		var cands [2][]graph.NodeID
		for k, r := range append([]kdtree.RegionID{q.rs, q.rt}, rec.Set...) {
			if k >= 2 && (r == q.rs || r == q.rt) {
				continue // inflation may re-list the endpoints
			}
			ids, err := cg.addRegion(hdr, [][]byte{page(fd, int(firstPage[r]))})
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
