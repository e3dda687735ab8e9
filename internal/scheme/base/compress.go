package base

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/pagefile"
	"repro/internal/precomp"
)

// Network-index record kinds. CI stores region sets, PI stores subgraphs,
// HY intermixes both transparently (§6).
const (
	KindSetLiteral   = 0
	KindSetDelta     = 1
	KindGraphLiteral = 2
	KindGraphDelta   = 3
)

// IndexRecord is one decoded network-index record: either a region set
// (possibly inflated by delta coding, §5.5 — inflation never exceeds m) or
// an edge subgraph (possibly a superset of the original, which is harmless).
type IndexRecord struct {
	Kind  byte // KindSetLiteral/Delta or KindGraphLiteral/Delta (as stored)
	Set   []kdtree.RegionID
	Edges []precomp.EdgeRef
}

// IsSet reports whether the record is a region set.
func (r IndexRecord) IsSet() bool { return r.Kind == KindSetLiteral || r.Kind == KindSetDelta }

// IndexBuilder forms the network index file F_i with the in-page delta
// compression of §5.5: each record may reference the already-placed record
// in the same page with the largest overlap, storing only additions (and,
// for region sets, exclusions whenever the inflated set would exceed m).
// References never cross page boundaries — that would cost extra PIR
// fetches at query time.
type IndexBuilder struct {
	packer *pagefile.Packer
	m      int // CI's inflation cap (max original |S_i,j|)

	ctxPage  int
	ctxSets  [][]kdtree.RegionID // decoded sets already in the open page, by ordinal
	ctxEdges [][]precomp.EdgeRef // decoded subgraphs in the open page, by ordinal
	ctxKinds []byte

	spans    []pagefile.Span
	ordinals []uint16 // per record: ordinal among records starting in its page
	perPage  map[int]uint16

	// mark[r] == gen marks region r as a member of the set last passed to
	// markRegions (bestSetDelta's membership tests).
	mark []uint32
	gen  uint32
}

// NewIndexBuilder prepares a builder writing into file. m is the inflation
// cap for compressed region sets; it must be >= the largest set added.
func NewIndexBuilder(file *pagefile.File, m int) *IndexBuilder {
	return &IndexBuilder{
		packer:  pagefile.NewPacker(file),
		m:       m,
		ctxPage: -1,
		perPage: map[int]uint16{},
	}
}

// AddSet appends S_i,j. With compress=false a literal is always stored
// (the CI-C ablation of Figure 9).
func (b *IndexBuilder) AddSet(set []kdtree.RegionID, compress bool) error {
	if len(set) > b.m {
		return fmt.Errorf("base: set of %d regions exceeds m=%d", len(set), b.m)
	}
	lit := encodeSetLiteral(set)
	payload := lit
	var inflated []kdtree.RegionID
	kind := byte(KindSetLiteral)
	if compress {
		if d, infl, ok := b.bestSetDelta(set); ok && len(d) < len(lit) && 4+len(d) <= b.packer.CurrentFree() {
			payload, inflated, kind = d, infl, KindSetDelta
		}
	}
	if kind == KindSetLiteral {
		inflated = set
	}
	b.place(payload, kind, inflated, nil)
	return nil
}

// AddGraph appends G_i,j. Delta records store the edges missing from the
// best-overlap reference; the implied inflation (extra real edges) is
// harmless for correctness and for the query plan (§6).
func (b *IndexBuilder) AddGraph(edges []precomp.EdgeRef, compress bool) error {
	lit := encodeGraphLiteral(edges)
	payload := lit
	var union []precomp.EdgeRef
	kind := byte(KindGraphLiteral)
	if compress {
		if d, u, ok := b.bestGraphDelta(edges); ok && len(d) < len(lit) && 4+len(d) <= b.packer.CurrentFree() {
			payload, union, kind = d, u, KindGraphDelta
		}
	}
	if kind == KindGraphLiteral {
		union = edges
	}
	b.place(payload, kind, nil, union)
	return nil
}

// place length-prefixes the payload, hands it to the packer and maintains
// the page-local reference context and per-record ordinals.
func (b *IndexBuilder) place(payload []byte, kind byte, set []kdtree.RegionID, edges []precomp.EdgeRef) {
	rec := pagefile.NewEnc(4 + len(payload)).U32(uint32(len(payload))).Raw(payload).Bytes()
	span := b.packer.Append(rec)
	b.spans = append(b.spans, span)
	ord := b.perPage[span.Page]
	b.perPage[span.Page] = ord + 1
	b.ordinals = append(b.ordinals, ord)

	switch {
	case span.Pages > 1:
		// Large records own their pages; nothing can reference them.
		b.ctxPage = -1
		b.ctxSets, b.ctxEdges, b.ctxKinds = nil, nil, nil
	case span.Page != b.ctxPage:
		b.ctxPage = span.Page
		b.ctxSets = [][]kdtree.RegionID{set}
		b.ctxEdges = [][]precomp.EdgeRef{edges}
		b.ctxKinds = []byte{kind}
	default:
		b.ctxSets = append(b.ctxSets, set)
		b.ctxEdges = append(b.ctxEdges, edges)
		b.ctxKinds = append(b.ctxKinds, kind)
	}
}

// bestSetDelta picks the same-page reference set with the largest overlap
// (the first such on ties) and encodes the delta per §5.5: additions
// always; exclusions only when |ref| + additions would exceed m, excluding
// ref-only elements until the inflated result has exactly m elements.
// Returns the encoded payload and the inflated set the client will
// reconstruct. Membership tests use the builder's region marks.
func (b *IndexBuilder) bestSetDelta(set []kdtree.RegionID) (payload []byte, inflated []kdtree.RegionID, ok bool) {
	bestRef, bestOverlap := -1, -1
	for i, ref := range b.ctxSets {
		if !isSetKind(b.ctxKinds[i]) || ref == nil {
			continue
		}
		gen, ov := b.markRegions(ref), 0
		for _, r := range set {
			if b.marked(r, gen) {
				ov++
			}
		}
		if ov > bestOverlap {
			bestOverlap, bestRef = ov, i
		}
	}
	if bestRef < 0 {
		return nil, nil, false
	}
	ref := b.ctxSets[bestRef]
	var adds []kdtree.RegionID
	inRef := b.markRegions(ref)
	for _, r := range set {
		if !b.marked(r, inRef) {
			adds = append(adds, r)
		}
	}
	var excl []kdtree.RegionID
	if over := len(ref) + len(adds) - b.m; over > 0 {
		inSet := b.markRegions(set)
		for _, r := range ref {
			if len(excl) == over {
				break
			}
			if !b.marked(r, inSet) {
				excl = append(excl, r)
			}
		}
		if len(excl) < over {
			return nil, nil, false // cannot respect m with this reference
		}
	}
	e := pagefile.NewEnc(16 + 2*(len(adds)+len(excl)))
	e.U8(KindSetDelta)
	e.U16(uint16(bestRef))
	e.U16(uint16(len(adds)))
	e.U16(uint16(len(excl)))
	for _, r := range adds {
		e.U16(uint16(r))
	}
	for _, r := range excl {
		e.U16(uint16(r))
	}
	// Reconstruct the inflated set: ref ∪ adds − excl.
	excluded := b.markRegions(excl)
	for _, r := range ref {
		if !b.marked(r, excluded) {
			inflated = append(inflated, r)
		}
	}
	inflated = append(inflated, adds...)
	return e.Bytes(), inflated, true
}

// markRegions stamps the regions of s with a fresh generation of the
// builder's mark array and returns that generation; marked tests a region
// against it.
func (b *IndexBuilder) markRegions(s []kdtree.RegionID) uint32 {
	b.gen++
	for _, r := range s {
		if int(r) >= len(b.mark) {
			b.mark = append(b.mark, make([]uint32, int(r)+1-len(b.mark))...)
		}
		b.mark[r] = b.gen
	}
	return b.gen
}

func (b *IndexBuilder) marked(r kdtree.RegionID, gen uint32) bool {
	return int(r) < len(b.mark) && b.mark[r] == gen
}

// bestGraphDelta is the §6 analogue for subgraphs: additions only.
func (b *IndexBuilder) bestGraphDelta(edges []precomp.EdgeRef) (payload []byte, union []precomp.EdgeRef, ok bool) {
	bestRef, bestOverlap := -1, -1
	for i, ref := range b.ctxEdges {
		if isSetKind(b.ctxKinds[i]) || ref == nil {
			continue
		}
		if ov := overlapEdges(edges, ref); ov > bestOverlap {
			bestOverlap, bestRef = ov, i
		}
	}
	if bestRef < 0 {
		return nil, nil, false
	}
	ref := b.ctxEdges[bestRef]
	inRef := map[[2]int32]bool{}
	for _, e := range ref {
		inRef[[2]int32{int32(e.From), int32(e.To)}] = true
	}
	var adds []precomp.EdgeRef
	for _, e := range edges {
		if !inRef[[2]int32{int32(e.From), int32(e.To)}] {
			adds = append(adds, e)
		}
	}
	e := pagefile.NewEnc(8 + 16*len(adds))
	e.U8(KindGraphDelta)
	e.U16(uint16(bestRef))
	e.U32(uint32(len(adds)))
	for _, a := range adds {
		e.U32(uint32(a.From))
		e.U32(uint32(a.To))
		e.F64(a.W)
	}
	union = append(append([]precomp.EdgeRef(nil), ref...), adds...)
	return e.Bytes(), union, true
}

// Finish flushes the file and returns, per added record, the page span and
// the in-page ordinal (which becomes the look-up entry).
func (b *IndexBuilder) Finish() (spans []pagefile.Span, ordinals []uint16, maxSpanPages int) {
	b.packer.Flush()
	return b.spans, b.ordinals, b.packer.MaxSpanPages()
}

func isSetKind(k byte) bool { return k == KindSetLiteral || k == KindSetDelta }

func encodeSetLiteral(set []kdtree.RegionID) []byte {
	e := pagefile.NewEnc(4 + 2*len(set))
	e.U8(KindSetLiteral)
	e.U16(uint16(len(set)))
	for _, r := range set {
		e.U16(uint16(r))
	}
	return e.Bytes()
}

func encodeGraphLiteral(edges []precomp.EdgeRef) []byte {
	e := pagefile.NewEnc(8 + 16*len(edges))
	e.U8(KindGraphLiteral)
	e.U32(uint32(len(edges)))
	for _, a := range edges {
		e.U32(uint32(a.From))
		e.U32(uint32(a.To))
		e.F64(a.W)
	}
	return e.Bytes()
}

func overlapEdges(a, b []precomp.EdgeRef) int {
	in := map[[2]int32]bool{}
	for _, e := range b {
		in[[2]int32{int32(e.From), int32(e.To)}] = true
	}
	n := 0
	for _, e := range a {
		if in[[2]int32{int32(e.From), int32(e.To)}] {
			n++
		}
	}
	return n
}

// DecodeIndexRecord extracts the record with ordinal recIdx among records
// starting in pages[offsetPage], resolving same-page delta references. The
// caller supplies the consecutive pages it fetched (the §5.4 query plan
// guarantees the window covers the whole record).
//
// Reaching ordinal recIdx means decoding every earlier record of the page,
// since a delta may reference any of them. The walk keeps those in a listed
// indexWalk, back to back in one region arena and one edge arena, so a walk
// allocates nothing once walkList is warm; only the returned record's set or
// subgraph is copied out, so it never aliases memory a later decode reuses.
func DecodeIndexRecord(pages [][]byte, offsetPage int, recIdx int) (IndexRecord, error) {
	if offsetPage < 0 || offsetPage >= len(pages) {
		return IndexRecord{}, fmt.Errorf("base: record page %d outside fetched window of %d", offsetPage, len(pages))
	}
	w := borrowWalk()
	defer w.release()
	// Concatenate from the record's first page onward (records never start
	// mid-window before offsetPage's boundary) into the walk's buffer; a
	// one-page tail is decoded where it lies.
	tail := pages[offsetPage:]
	buf := tail[0]
	if len(tail) > 1 {
		w.buf = w.buf[:0]
		for _, p := range tail {
			w.buf = append(w.buf, p...)
		}
		buf = w.buf
	}
	var d pagefile.Dec
	d.Reset(buf)
	for ord := 0; ; ord++ {
		if d.Remaining() < 4 {
			return IndexRecord{}, fmt.Errorf("base: record %d not found in page", recIdx)
		}
		n := int(d.U32())
		if n == 0 {
			return IndexRecord{}, fmt.Errorf("base: record %d not found (page has %d records)", recIdx, ord)
		}
		payload := d.Raw(n)
		if d.Err() != nil {
			return IndexRecord{}, fmt.Errorf("base: index record decode: %w", d.Err())
		}
		kind, set, edges, err := w.decodePayload(payload)
		if err != nil {
			return IndexRecord{}, err
		}
		if ord == recIdx {
			rec := IndexRecord{Kind: kind}
			if set.n >= 0 {
				rec.Set = slices.Clone(w.regions[set.off : set.off+set.n])
			}
			if edges.n >= 0 {
				rec.Edges = slices.Clone(w.edges[edges.off : edges.off+edges.n])
			}
			return rec, nil
		}
		w.sets = append(w.sets, set)
		w.graphs = append(w.graphs, edges)
	}
}

// indexWalk is DecodeIndexRecord's working state: a multi-page window
// joined into one buffer, and the sets and subgraphs of the records decoded
// so far, back to back in two arenas, with each record's place in them by
// ordinal.
type indexWalk struct {
	buf     []byte
	regions []kdtree.RegionID
	edges   []precomp.EdgeRef
	sets    []arenaSpan // per ordinal, the record's set in regions
	graphs  []arenaSpan // per ordinal, the record's subgraph in edges
}

// arenaSpan locates a decoded set or subgraph in its walk arena; n < 0 marks
// a record a delta of that kind cannot reference: a set for a subgraph's
// record and the reverse, and a subgraph delta that resolved to no edges.
type arenaSpan struct{ off, n int }

// noSpan is the span of a record that holds nothing of that kind.
var noSpan = arenaSpan{n: -1}

// walkList holds the walks of finished decodes, slices kept, in a bounded
// channel like graphList: at most listCap walks of at most
// maxPooledWalkBytes each, 4 MiB at worst.
var walkList = make(chan *indexWalk, listCap)

// borrowWalk takes an empty walk from walkList, or a new one; release
// returns it.
func borrowWalk() *indexWalk {
	select {
	case w := <-walkList:
		return w
	default:
		return new(indexWalk)
	}
}

// maxPooledWalkBytes caps the walks walkList keeps: CI's windows and sets
// need a few KB, and a walk that grew past this — a PI window of large
// subgraphs — is cheaper to allocate again than to hold while idle.
const maxPooledWalkBytes = 256 << 10

// release empties w and returns it to walkList, unless it grew past
// maxPooledWalkBytes or the list is full.
func (w *indexWalk) release() {
	if cap(w.buf)+4*cap(w.regions)+16*cap(w.edges)+16*(cap(w.sets)+cap(w.graphs)) > maxPooledWalkBytes {
		return
	}
	w.buf, w.regions, w.edges, w.sets, w.graphs = w.buf[:0], w.regions[:0], w.edges[:0], w.sets[:0], w.graphs[:0]
	select {
	case walkList <- w:
	default:
	}
}

// decodePayload decodes one record payload onto the end of the walk's
// arenas and returns its kind and where its set and subgraph lie, resolving
// a delta against the records decoded before it.
func (w *indexWalk) decodePayload(payload []byte) (kind byte, set, edges arenaSpan, err error) {
	var d pagefile.Dec
	d.Reset(payload)
	kind = d.U8()
	set, edges = noSpan, noSpan
	switch kind {
	case KindSetLiteral:
		n := int(d.U16())
		if n > d.Remaining()/2 {
			return kind, set, edges, fmt.Errorf("base: set literal claims %d regions, %d bytes remain", n, d.Remaining())
		}
		set.off = len(w.regions)
		for b := d.Raw(2 * n); len(b) > 0; b = b[2:] {
			w.regions = append(w.regions, regionAt(b))
		}
	case KindSetDelta:
		ref := int(d.U16())
		nAdds := int(d.U16())
		nExcl := int(d.U16())
		if ref >= len(w.sets) || w.sets[ref].n < 0 {
			return kind, set, edges, fmt.Errorf("base: set delta references record %d of %d", ref, len(w.sets))
		}
		adds := d.Raw(2 * nAdds)
		excl := d.Raw(2 * nExcl)
		if d.Err() != nil { // before the counts size anything
			return kind, set, edges, fmt.Errorf("base: index record decode: %w", d.Err())
		}
		// ref − excl, then adds, onto the arena's end. bestSetDelta lists
		// exclusions in reference order, so one cursor over excl replaces a
		// per-record lookup table; an exclusion the walk cannot match means
		// the page is not one the builder wrote. The range reads the
		// reference through the slice it started with, so the appends may
		// move the arena under it.
		r0 := w.sets[ref]
		set.off = len(w.regions)
		for _, r := range w.regions[r0.off : r0.off+r0.n] {
			if len(excl) > 0 && r == regionAt(excl) {
				excl = excl[2:]
				continue
			}
			w.regions = append(w.regions, r)
		}
		if len(excl) > 0 {
			return kind, set, edges, fmt.Errorf("base: set delta excludes region %d, not in record %d (or out of order)", regionAt(excl), ref)
		}
		for ; len(adds) > 0; adds = adds[2:] {
			w.regions = append(w.regions, regionAt(adds))
		}
	case KindGraphLiteral:
		n := int(d.U32())
		// The count is untrusted input: bound it by the bytes actually
		// present (16 per edge) before anything is appended.
		if n < 0 || n > d.Remaining()/16 {
			return kind, set, edges, fmt.Errorf("base: graph literal claims %d edges, %d bytes remain", n, d.Remaining())
		}
		edges.off = len(w.edges)
		w.edges = slices.Grow(w.edges, n)
		for i := 0; i < n; i++ {
			w.edges = append(w.edges, decodeEdge(&d))
		}
	case KindGraphDelta:
		ref := int(d.U16())
		nAdds := int(d.U32())
		if ref >= len(w.graphs) || w.graphs[ref].n < 0 {
			return kind, set, edges, fmt.Errorf("base: graph delta references record %d of %d", ref, len(w.graphs))
		}
		if nAdds < 0 || nAdds > d.Remaining()/16 {
			return kind, set, edges, fmt.Errorf("base: graph delta claims %d additions, %d bytes remain", nAdds, d.Remaining())
		}
		g0 := w.graphs[ref]
		edges.off = len(w.edges)
		w.edges = append(w.edges, w.edges[g0.off:g0.off+g0.n]...)
		for i := 0; i < nAdds; i++ {
			w.edges = append(w.edges, decodeEdge(&d))
		}
	default:
		return kind, set, edges, fmt.Errorf("base: unknown index record kind %d", kind)
	}
	if d.Err() != nil {
		return kind, set, edges, fmt.Errorf("base: index record decode: %w", d.Err())
	}
	if isSetKind(kind) {
		set.n = len(w.regions) - set.off
	} else if edges.n = len(w.edges) - edges.off; edges.n == 0 && kind == KindGraphDelta {
		edges = noSpan
	}
	return kind, set, edges, nil
}

// regionAt reads the region id at the head of a little-endian u16 list.
func regionAt(b []byte) kdtree.RegionID {
	return kdtree.RegionID(binary.LittleEndian.Uint16(b))
}

func decodeEdge(d *pagefile.Dec) precomp.EdgeRef {
	return precomp.EdgeRef{
		From: graph.NodeID(d.U32()),
		To:   graph.NodeID(d.U32()),
		W:    d.F64(),
	}
}
