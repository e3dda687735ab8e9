package base

// refSetBuilder is IndexBuilder's region-set path as it was before
// bestSetDelta replaced its per-reference maps with generation-stamped
// region marks, kept as the equivalence oracle of
// TestIndexBuilderMatchesReference: same sets in, same pages, spans and
// ordinals out.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kdtree"
	"repro/internal/pagefile"
)

type refSetBuilder struct {
	packer   *pagefile.Packer
	m        int
	ctxPage  int
	ctxSets  [][]kdtree.RegionID
	ctxKinds []byte
	spans    []pagefile.Span
	ordinals []uint16
	perPage  map[int]uint16
}

func newRefSetBuilder(file *pagefile.File, m int) *refSetBuilder {
	return &refSetBuilder{packer: pagefile.NewPacker(file), m: m, ctxPage: -1, perPage: map[int]uint16{}}
}

func (b *refSetBuilder) AddSet(set []kdtree.RegionID, compress bool) error {
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
	b.place(payload, kind, inflated)
	return nil
}

func (b *refSetBuilder) place(payload []byte, kind byte, set []kdtree.RegionID) {
	rec := pagefile.NewEnc(4 + len(payload)).U32(uint32(len(payload))).Raw(payload).Bytes()
	span := b.packer.Append(rec)
	b.spans = append(b.spans, span)
	ord := b.perPage[span.Page]
	b.perPage[span.Page] = ord + 1
	b.ordinals = append(b.ordinals, ord)
	switch {
	case span.Pages > 1:
		b.ctxPage = -1
		b.ctxSets, b.ctxKinds = nil, nil
	case span.Page != b.ctxPage:
		b.ctxPage = span.Page
		b.ctxSets = [][]kdtree.RegionID{set}
		b.ctxKinds = []byte{kind}
	default:
		b.ctxSets = append(b.ctxSets, set)
		b.ctxKinds = append(b.ctxKinds, kind)
	}
}

func (b *refSetBuilder) bestSetDelta(set []kdtree.RegionID) (payload []byte, inflated []kdtree.RegionID, ok bool) {
	bestRef, bestOverlap := -1, -1
	for i, ref := range b.ctxSets {
		if !isSetKind(b.ctxKinds[i]) || ref == nil {
			continue
		}
		if ov := overlapSets(set, ref); ov > bestOverlap {
			bestOverlap, bestRef = ov, i
		}
	}
	if bestRef < 0 {
		return nil, nil, false
	}
	ref := b.ctxSets[bestRef]
	inRef := map[kdtree.RegionID]bool{}
	for _, r := range ref {
		inRef[r] = true
	}
	inSet := map[kdtree.RegionID]bool{}
	var adds []kdtree.RegionID
	for _, r := range set {
		inSet[r] = true
		if !inRef[r] {
			adds = append(adds, r)
		}
	}
	var excl []kdtree.RegionID
	if over := len(ref) + len(adds) - b.m; over > 0 {
		for _, r := range ref {
			if len(excl) == over {
				break
			}
			if !inSet[r] {
				excl = append(excl, r)
			}
		}
		if len(excl) < over {
			return nil, nil, false
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
	exclSet := map[kdtree.RegionID]bool{}
	for _, r := range excl {
		exclSet[r] = true
	}
	for _, r := range ref {
		if !exclSet[r] {
			inflated = append(inflated, r)
		}
	}
	inflated = append(inflated, adds...)
	return e.Bytes(), inflated, true
}

func overlapSets(a, b []kdtree.RegionID) int {
	in := map[kdtree.RegionID]bool{}
	for _, r := range b {
		in[r] = true
	}
	n := 0
	for _, r := range a {
		if in[r] {
			n++
		}
	}
	return n
}

// TestIndexBuilderMatchesReference feeds random set sequences through
// IndexBuilder and the map-based oracle. Sets reach m, are drawn from small
// universes (so references tie on overlap) and repeat or perturb earlier
// sets; both builders must write the same pages, spans and ordinals.
func TestIndexBuilderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		pageSize := 64 + rng.Intn(512)
		m := 1 + rng.Intn(40)
		universe := m + rng.Intn(3*m+2)
		got, want := pagefile.NewFile(FileIndex, pageSize), pagefile.NewFile(FileIndex, pageSize)
		ib, ref := NewIndexBuilder(got, m), newRefSetBuilder(want, m)
		var sets [][]kdtree.RegionID
		for n := 10 + rng.Intn(150); n > 0; n-- {
			set := randomSet(rng, m, universe, sets)
			compress := rng.Intn(8) != 0
			if err := ib.AddSet(set, compress); err != nil {
				t.Fatal(err)
			}
			if err := ref.AddSet(set, compress); err != nil {
				t.Fatal(err)
			}
			sets = append(sets, set)
		}
		spans, ords, _ := ib.Finish()
		ref.packer.Flush()
		if !slices.Equal(spans, ref.spans) || !slices.Equal(ords, ref.ordinals) {
			t.Fatalf("trial %d: spans/ordinals differ from the reference", trial)
		}
		if got.NumPages() != want.NumPages() {
			t.Fatalf("trial %d: %d pages, reference %d", trial, got.NumPages(), want.NumPages())
		}
		for p := 0; p < got.NumPages(); p++ {
			a, _ := got.Page(p)
			b, _ := want.Page(p)
			if !bytes.Equal(a, b) {
				t.Fatalf("trial %d: page %d differs from the reference", trial, p)
			}
		}
	}
}

// randomSet draws a duplicate-free set of up to m regions: fresh, a copy of
// an earlier set, or an earlier set with one region swapped or dropped.
func randomSet(rng *rand.Rand, m, universe int, prev [][]kdtree.RegionID) []kdtree.RegionID {
	if len(prev) > 0 && rng.Intn(3) == 0 {
		set := slices.Clone(prev[rng.Intn(len(prev))])
		if len(set) > 0 {
			switch i := rng.Intn(len(set)); rng.Intn(3) {
			case 0:
				set = slices.Delete(set, i, i+1)
			case 1:
				if r := kdtree.RegionID(rng.Intn(universe)); !slices.Contains(set, r) {
					set[i] = r
				}
			}
		}
		return set
	}
	size := rng.Intn(m + 1)
	if rng.Intn(4) == 0 {
		size = m
	}
	var set []kdtree.RegionID
	for _, r := range rng.Perm(universe)[:size] {
		set = append(set, kdtree.RegionID(r))
	}
	if rng.Intn(2) == 0 {
		slices.Sort(set)
	}
	return set
}
