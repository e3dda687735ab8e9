package base

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/pagefile"
	"repro/internal/precomp"
)

// TestDecodeRegionRefusesEveryTruncation cuts valid region pages — plain and
// compact, in CI's, LM's (landmark vectors) and AF's (Arc flags) layouts —
// at every byte, inside the node count as well as inside the records. Each
// cut must come back as an error, never a panic, from the decoder feeding
// the client graph and from the one feeding the tests' RegionNodes alike:
// the fixed-width reads check a whole record, or a whole adjacency list,
// before they index into it, and a page too short to hold its node count is
// a truncated page, not an empty region. A one-byte cluster fed to
// ClientGraph.addRegion errors too.
func TestDecodeRegionRefusesEveryTruncation(t *testing.T) {
	pages, lmDims, flagBytes, compact := seedRegionPages(t)
	for i, page := range pages {
		l := regionLayout{lmDim: lmDims[i], flagBytes: flagBytes[i], compact: compact[i]}
		var whole regionNodes
		if err := decodeRegion(page, l, &whole); err != nil || len(whole) == 0 {
			t.Fatalf("page %d (%+v): whole page decoded %d records, err %v", i, l, len(whole), err)
		}
		for cut := 0; cut < len(page); cut++ {
			var rs regionNodes
			if err := decodeRegion(page[:cut], l, &rs); err == nil {
				t.Fatalf("page %d (%+v) cut to %d of %d bytes decoded without error", i, l, cut, len(page))
			}
			if err := decodeRegion(page[:cut], l, NewClientGraph()); err == nil {
				t.Fatalf("page %d (%+v) cut to %d of %d bytes decoded into the client graph without error", i, l, cut, len(page))
			}
		}
	}
	hdr := &Header{RegionFirstPage: make([]uint32, 4), ClusterPages: 1, Params: map[string]int64{}}
	if ids, err := NewClientGraph().addRegion(hdr, [][]byte{{7}}); err == nil {
		t.Fatalf("a 1-byte region page added %d records without error", len(ids))
	}
}

// TestClientGraphRefusesNegativeWeights feeds the client graph a two-node
// region page, and a subgraph, whose one edge weighs w: a weight that is
// negative or NaN is corrupt data and an error, since a negative cycle would
// keep the search reopening nodes without end; zero and +Inf are lengths.
func TestClientGraphRefusesNegativeWeights(t *testing.T) {
	hdr := &Header{RegionFirstPage: make([]uint32, 4), ClusterPages: 1, Params: map[string]int64{}}
	for _, w := range []float64{-1, -1e-300, math.NaN(), 0, 2.5, math.Inf(1)} {
		e := pagefile.NewEnc(64).U16(2)
		e.U32(0).F64(0).F64(0).U16(1).U32(1).F64(w).U16(0)
		e.U32(1).F64(1).F64(0).U16(0)
		_, regionErr := NewClientGraph().addRegion(hdr, [][]byte{e.Bytes()})
		subgraphErr := NewClientGraph().AddSubgraphEdges([]precomp.EdgeRef{{From: 0, To: 1, W: w}})
		if refuse := !(w >= 0); (regionErr != nil) != refuse || (subgraphErr != nil) != refuse {
			t.Errorf("weight %v: region page error %v, subgraph error %v; want refused = %v", w, regionErr, subgraphErr, refuse)
		}
	}
}

// indexWindow is one record's F_i window: the pages from the record's first
// on, and its ordinal there.
type indexWindow struct {
	pages [][]byte
	ord   int
}

// seedIndexWindows returns every record of seedIndex's index as its
// window: the pages from the record's first on, and its ordinal there.
func seedIndexWindows(t *testing.T) []indexWindow {
	file, spans, ords, maxSpan := seedIndex(t)
	if file.NumPages() < 3 {
		t.Fatalf("index fits %d pages; the test needs records on several", file.NumPages())
	}
	windows := make([]indexWindow, len(spans))
	for i, span := range spans {
		for p := span.Page; p < file.NumPages() && p < span.Page+maxSpan; p++ {
			page, err := file.Page(p)
			if err != nil {
				t.Fatal(err)
			}
			windows[i].pages = append(windows[i].pages, page)
		}
		windows[i].ord = int(ords[i])
	}
	return windows
}

// sameRecord reports whether two decoded records hold the same kind, set and
// subgraph.
func sameRecord(a, b IndexRecord) bool {
	return a.Kind == b.Kind && slices.Equal(a.Set, b.Set) && slices.Equal(a.Edges, b.Edges)
}

// TestDecodedIndexRecordOutlivesLaterDecodes holds every decoded record while
// the rest of the index is decoded after it: the walk's arenas go back to a
// pool and are overwritten by the next decode, so a record that aliased
// them would change under its holder.
func TestDecodedIndexRecordOutlivesLaterDecodes(t *testing.T) {
	windows := seedIndexWindows(t)
	recs := make([]IndexRecord, len(windows))
	snaps := make([]IndexRecord, len(windows))
	deltas := 0
	for i, w := range windows {
		rec, err := DecodeIndexRecord(w.pages, 0, w.ord)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Kind == KindSetDelta || rec.Kind == KindGraphDelta {
			deltas++
		}
		recs[i] = rec
		snaps[i] = IndexRecord{Kind: rec.Kind, Set: slices.Clone(rec.Set), Edges: slices.Clone(rec.Edges)}
	}
	if deltas == 0 {
		t.Fatal("no delta record in the index: the walk resolves no reference")
	}
	for i, rec := range recs {
		if !sameRecord(rec, snaps[i]) {
			t.Errorf("record %d changed after later decodes: set %v and %d edges, want %v and %d", i, rec.Set, len(rec.Edges), snaps[i].Set, len(snaps[i].Edges))
		}
	}
}

// TestConcurrentIndexDecodes decodes records of two different pages from two
// goroutines at once, each keeping its last record while it decodes the
// next: every record must equal the serial decode and stay so.
func TestConcurrentIndexDecodes(t *testing.T) {
	windows := seedIndexWindows(t)
	// The last record of the first page and of the second: the longest walks.
	var picks []indexWindow
	for i := 1; i < len(windows) && len(picks) < 2; i++ {
		if windows[i].ord == 0 {
			picks = append(picks, windows[i-1])
		}
	}
	if len(picks) < 2 || &picks[0].pages[0][0] == &picks[1].pages[0][0] {
		t.Fatal("the test needs records of two different pages")
	}
	var wg sync.WaitGroup
	for k, w := range picks {
		want, err := DecodeIndexRecord(w.pages, 0, w.ord)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev IndexRecord
			for i := 0; i < 1000; i++ {
				rec, err := DecodeIndexRecord(w.pages, 0, w.ord)
				if err != nil {
					t.Errorf("goroutine %d: %v", k, err)
					return
				}
				if !sameRecord(rec, want) || i > 0 && !sameRecord(prev, want) {
					t.Errorf("goroutine %d, decode %d: got set %v and %d edges, last %v and %d; want %v and %d",
						k, i, rec.Set, len(rec.Edges), prev.Set, len(prev.Edges), want.Set, len(want.Edges))
					return
				}
				prev = rec
			}
		}()
	}
	wg.Wait()
}
