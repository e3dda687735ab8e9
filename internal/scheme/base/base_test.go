package base

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/pagefile"
	"repro/internal/plan"
	"repro/internal/precomp"
)

func sampleHeader() *Header {
	return &Header{
		Scheme:     "CI",
		NumRegions: 3,
		Tree: &kdtree.Tree{Nodes: []kdtree.Node{
			{Axis: kdtree.AxisX, Split: 4.5, Left: 1, Right: 2, Region: kdtree.NoRegion},
			{Left: -1, Right: -1, Region: 0},
			{Axis: kdtree.AxisY, Split: 2.25, Left: 3, Right: 4, Region: kdtree.NoRegion},
			{Left: -1, Right: -1, Region: 1},
			{Left: -1, Right: -1, Region: 2},
		}},
		RegionFirstPage:      []uint32{0, 1, 2},
		ClusterPages:         1,
		LookupEntriesPerPage: 682,
		Plan: plan.Plan{Rounds: []plan.Round{
			{Fetches: []plan.Fetch{{File: FileLookup, Count: 1}}},
		}},
		Params: map[string]int64{ParamM: 7, ParamMaxSpan: 2},
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := sampleHeader()
	got, err := DecodeHeader(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != h.Scheme || got.NumRegions != h.NumRegions {
		t.Fatalf("meta mismatch: %+v", got)
	}
	if len(got.Tree.Nodes) != len(h.Tree.Nodes) {
		t.Fatalf("tree nodes %d != %d", len(got.Tree.Nodes), len(h.Tree.Nodes))
	}
	if got.Tree.Locate(geom.Point{X: 1, Y: 1}) != 0 {
		t.Error("decoded tree locates wrongly")
	}
	if got.Tree.Locate(geom.Point{X: 9, Y: 1}) != 1 {
		t.Error("decoded tree right/bottom leaf wrong")
	}
	if got.Tree.Locate(geom.Point{X: 9, Y: 9}) != 2 {
		t.Error("decoded tree right/top leaf wrong")
	}
	if got.MustParam(ParamM) != 7 || got.MustParam(ParamMaxSpan) != 2 {
		t.Error("params lost")
	}
	if got.Plan.String() != h.Plan.String() {
		t.Error("plan lost")
	}
}

// TestDecodeHeaderRefusesDirectedByte: the byte after the scheme name once
// marked a directed network. Encode writes 0; a header from the server with
// any other value is refused with an error.
func TestDecodeHeaderRefusesDirectedByte(t *testing.T) {
	h := sampleHeader()
	data := h.Encode()
	at := 1 + len(h.Scheme)
	if data[at] != 0 {
		t.Fatalf("Encode wrote %d after the scheme name, want 0", data[at])
	}
	for _, b := range []byte{1, 0xff} {
		data[at] = b
		if got, err := DecodeHeader(data); err == nil {
			t.Errorf("byte %d: decoded %+v, want an error", b, got)
		}
	}
}

func TestHeaderParamErrors(t *testing.T) {
	h := sampleHeader()
	if _, err := h.Param("missing"); err == nil {
		t.Error("missing param found")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParam did not panic")
		}
	}()
	h.MustParam("missing")
}

func TestDecodeHeaderRejectsGarbage(t *testing.T) {
	if _, err := DecodeHeader([]byte{9, 1, 2}); err == nil {
		t.Error("garbage header decoded")
	}
}

func TestRegionCodecRoundTrip(t *testing.T) {
	g := graph.NewUndirected()
	for i := 0; i < 6; i++ {
		g.AddNode(geom.Point{X: float64(i), Y: float64(i) * 1.5})
	}
	for i := 0; i < 5; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), float64(i)+0.5)
	}
	part := &kdtree.Partition{
		NumRegions: 2,
		RegionOf:   []kdtree.RegionID{0, 0, 0, 1, 1, 1},
		Members:    [][]graph.NodeID{{0, 1, 2}, {3, 4, 5}},
	}
	lms := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}}
	codec := &RegionCodec{G: g, Part: part, Landmarks: lms, LandmarkDim: 2}
	data := codec.EncodeRegion(0)
	if len(data) != codec.NodeSize(0)+codec.NodeSize(1)+codec.NodeSize(2)+2 {
		t.Errorf("encoded %d bytes, size function promises %d+2",
			len(data), codec.NodeSize(0)+codec.NodeSize(1)+codec.NodeSize(2))
	}
	nodes, err := DecodeRegion(data, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("decoded %d nodes", len(nodes))
	}
	if nodes[1].ID != 1 || nodes[1].Pt.Y != 1.5 || nodes[1].LM[1] != 4 {
		t.Errorf("node 1 decoded wrong: %+v", nodes[1])
	}
	if len(nodes[1].Adj) != 2 || nodes[1].Adj[0].W != 0.5 {
		t.Errorf("adjacency decoded wrong: %+v", nodes[1].Adj)
	}
	if nodes[2].Adj[1].ToRegion != 1 {
		t.Errorf("cross-region hint lost: %+v", nodes[2].Adj)
	}
}

// TestCompactPageOfIsolatedNodes pins the smallest record the layouts have:
// a degree-0 node with an id below 128 is 18 bytes compact, so a page of 40
// of them is 722 bytes, and it must decode — as RegionNodes and into a
// client graph. The decoder's count guard once assumed 19-byte records and
// refused it.
func TestCompactPageOfIsolatedNodes(t *testing.T) {
	data := isolatedNodesPage()
	if len(data) != 2+40*18 {
		t.Fatalf("page is %d bytes, want %d", len(data), 2+40*18)
	}
	nodes, err := DecodeRegionMode(data, 0, 0, true)
	if err != nil || len(nodes) != 40 {
		t.Fatalf("decoded %d nodes, err %v", len(nodes), err)
	}
	hdr := &Header{RegionFirstPage: make([]uint32, 1), ClusterPages: 1, Params: map[string]int64{ParamCompact: 1}}
	cg := NewClientGraph()
	ids, err := cg.addRegion(hdr, [][]byte{data})
	if err != nil || len(ids) != 40 || cg.NumNodes() != 40 {
		t.Fatalf("graph took %d of 40 records (%d ids), err %v", cg.NumNodes(), len(ids), err)
	}
}

func TestIndexBuilderSetRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		file := pagefile.NewFile(FileIndex, 128+rng.Intn(512))
		m := 4 + rng.Intn(40)
		ib := NewIndexBuilder(file, m)
		var originals [][]kdtree.RegionID
		n := 1 + rng.Intn(50)
		for i := 0; i < n; i++ {
			size := rng.Intn(m + 1)
			set := make([]kdtree.RegionID, 0, size)
			seen := map[kdtree.RegionID]bool{}
			for len(set) < size {
				r := kdtree.RegionID(rng.Intn(200))
				if !seen[r] {
					seen[r] = true
					set = append(set, r)
				}
			}
			if err := ib.AddSet(set, true); err != nil {
				return false
			}
			originals = append(originals, set)
		}
		spans, ords, maxSpan := ib.Finish()
		for i, span := range spans {
			start := span.Page
			var pages [][]byte
			for p := start; p < file.NumPages() && p < start+maxSpan; p++ {
				page, err := file.Page(p)
				if err != nil {
					return false
				}
				pages = append(pages, page)
			}
			rec, err := DecodeIndexRecord(pages, 0, int(ords[i]))
			if err != nil {
				return false
			}
			if !rec.IsSet() || len(rec.Set) > m {
				return false
			}
			// The decoded (possibly inflated) set must cover the original.
			have := map[kdtree.RegionID]bool{}
			for _, r := range rec.Set {
				have[r] = true
			}
			for _, r := range originals[i] {
				if !have[r] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIndexBuilderGraphRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		file := pagefile.NewFile(FileIndex, 256)
		ib := NewIndexBuilder(file, 1)
		var originals [][]precomp.EdgeRef
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			size := rng.Intn(30)
			edges := make([]precomp.EdgeRef, size)
			for j := range edges {
				edges[j] = precomp.EdgeRef{
					From: graph.NodeID(rng.Intn(40)),
					To:   graph.NodeID(rng.Intn(40)),
					W:    rng.Float64(),
				}
			}
			if err := ib.AddGraph(edges, true); err != nil {
				return false
			}
			originals = append(originals, edges)
		}
		spans, ords, maxSpan := ib.Finish()
		for i, span := range spans {
			var pages [][]byte
			for p := span.Page; p < file.NumPages() && p < span.Page+maxSpan; p++ {
				page, _ := file.Page(p)
				pages = append(pages, page)
			}
			rec, err := DecodeIndexRecord(pages, 0, int(ords[i]))
			if err != nil {
				return false
			}
			if rec.IsSet() {
				return false
			}
			have := map[[2]graph.NodeID]bool{}
			for _, e := range rec.Edges {
				have[[2]graph.NodeID{e.From, e.To}] = true
			}
			for _, e := range originals[i] {
				if !have[[2]graph.NodeID{e.From, e.To}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIndexBuilderRejectsOversizedSet(t *testing.T) {
	file := pagefile.NewFile(FileIndex, 256)
	ib := NewIndexBuilder(file, 3)
	if err := ib.AddSet([]kdtree.RegionID{1, 2, 3, 4}, true); err == nil {
		t.Error("set above m accepted")
	}
}

func TestLookupRoundTrip(t *testing.T) {
	per := LookupEntriesPerPage(64) // 10 entries per page
	var entries []LookupEntry
	var spans []pagefile.Span
	var ords []uint16
	for i := 0; i < 25; i++ {
		entries = append(entries, LookupEntry{Page: uint32(i * 3), RecIndex: uint16(i % 7)})
		spans = append(spans, pagefile.Span{Page: i * 3})
		ords = append(ords, uint16(i%7))
	}
	file, err := BuildLookup(64, spans, ords)
	if err != nil {
		t.Fatal(err)
	}
	if file.NumPages() != (25+per-1)/per {
		t.Errorf("pages = %d", file.NumPages())
	}
	for i, want := range entries {
		pageIdx := LookupPageFor(i, per)
		page, err := file.Page(pageIdx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseLookupEntry(page, i, per)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("entry %d: %+v != %+v", i, got, want)
		}
	}
}

func TestLookupEmpty(t *testing.T) {
	file, err := BuildLookup(64, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if file.NumPages() != 1 {
		t.Error("empty look-up should still have one page for PIR sanity")
	}
}

func TestClientGraphDijkstra(t *testing.T) {
	cg := NewClientGraph()
	cg.AddRegionNodes([]RegionNode{
		{ID: 0, Pt: geom.Point{}, Adj: []RegionAdj{{To: 1, W: 1}, {To: 2, W: 5}}},
		{ID: 1, Pt: geom.Point{X: 1}, Adj: []RegionAdj{{To: 2, W: 1}}},
	})
	cost, path := cg.Dijkstra(0, 2)
	if cost != 2 || len(path) != 3 {
		t.Errorf("cost %v path %v", cost, path)
	}
	cost, _ = cg.Dijkstra(0, 99)
	if !math.IsInf(cost, 1) {
		t.Error("unreachable should be +Inf")
	}
}

func TestClientGraphSubgraphEdges(t *testing.T) {
	cg := NewClientGraph()
	if err := cg.AddSubgraphEdges([]precomp.EdgeRef{{From: 5, To: 6, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if cost, _ := cg.Dijkstra(6, 5); cost != 2 {
		t.Error("subgraph edge not mirrored")
	}
}

func TestClientGraphSearchWithFilterAndSettle(t *testing.T) {
	cg := NewClientGraph()
	cg.AddRegionNodes([]RegionNode{
		{ID: 0, Adj: []RegionAdj{{To: 1, W: 1}, {To: 2, W: 1}}},
		{ID: 1, Adj: []RegionAdj{{To: 3, W: 1}}},
		{ID: 2, Adj: []RegionAdj{{To: 3, W: 10}}},
	})
	// Filter out the cheap route through node 1.
	cost, _ := cg.Search(0, 3, nil, func(from graph.NodeID, he graph.HalfEdge) bool {
		return !(from == 0 && he.To == 1) && !(from == 1 && he.To == 0)
	}, nil)
	if cost != 11 {
		t.Errorf("filtered cost = %v, want 11", cost)
	}
	// Abort via onSettle.
	cost, _ = cg.Search(0, 3, nil, nil, func(graph.NodeID) bool { return false })
	if !math.IsInf(cost, 1) {
		t.Error("aborted search returned finite cost")
	}
}

func TestClientGraphNearest(t *testing.T) {
	cg := NewClientGraph()
	nodes := []RegionNode{
		{ID: 4, Pt: geom.Point{X: 0}},
		{ID: 9, Pt: geom.Point{X: 10}},
	}
	cg.AddRegionNodes(nodes)
	if v := cg.Nearest(geom.Point{X: 3}, []graph.NodeID{4, 9}); v != 4 {
		t.Errorf("Nearest(candidates) = %d", v)
	}
	if v := cg.Nearest(geom.Point{X: 8}, nil); v != 9 {
		t.Errorf("Nearest(all) = %d", v)
	}
}

func TestFetchIndexWindowClamping(t *testing.T) {
	// The §5.4 footnote-5 rule: the window covers the record's page and
	// stays inside the file.
	for _, tc := range []struct {
		entry, maxSpan, filePages int
		wantPages                 []int
		wantOff                   int
	}{
		{0, 3, 10, []int{0, 1, 2}, 0},
		{5, 3, 10, []int{5, 6, 7}, 0},
		{9, 3, 10, []int{7, 8, 9}, 2}, // last page: window starts at 7
		{8, 3, 10, []int{7, 8, 9}, 1},
		{0, 5, 3, []int{0, 1, 2}, 0}, // file smaller than window
	} {
		pages, off := IndexWindow(LookupEntry{Page: uint32(tc.entry)}, tc.maxSpan, tc.filePages)
		if !slices.Equal(pages, tc.wantPages) || off != tc.wantOff {
			t.Errorf("entry=%d span=%d pages=%d: window %v off %d, want %v off %d",
				tc.entry, tc.maxSpan, tc.filePages, pages, off, tc.wantPages, tc.wantOff)
		}
	}
}

// TestSetDeltaExclusionsFollowReferenceOrder pins the decoder's one-cursor
// exclusion walk: ref − excl + adds for exclusions listed in reference order
// (all bestSetDelta ever writes), an error for one the reference lacks or
// lists earlier. The window spans two pages, so the sized-once concatenation
// is on the path as well.
func TestSetDeltaExclusionsFollowReferenceOrder(t *testing.T) {
	window := func(excl ...kdtree.RegionID) [][]byte {
		lit := encodeSetLiteral([]kdtree.RegionID{5, 1, 8, 3})
		delta := pagefile.NewEnc(16).U8(KindSetDelta).U16(0).U16(1).U16(uint16(len(excl))).U16(9)
		for _, r := range excl {
			delta.U16(uint16(r))
		}
		page := pagefile.NewEnc(64)
		for _, payload := range [][]byte{lit, delta.Bytes()} {
			page.U32(uint32(len(payload))).Raw(payload)
		}
		page.U32(0)
		b := page.Bytes()
		return [][]byte{b[:20], b[20:]}
	}
	rec, err := DecodeIndexRecord(window(1, 3), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []kdtree.RegionID{5, 8, 9}; !slices.Equal(rec.Set, want) {
		t.Fatalf("decoded %v, want %v", rec.Set, want)
	}
	for _, excl := range [][]kdtree.RegionID{{7}, {3, 1}} {
		if _, err := DecodeIndexRecord(window(excl...), 0, 1); err == nil {
			t.Errorf("exclusions %v against reference [5 1 8 3] decoded without error", excl)
		}
	}
}
