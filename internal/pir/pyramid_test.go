package pir

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestPyramidCorrectness(t *testing.T) {
	pages := makePages(40, 64, 21)
	o, err := NewPyramidORAM(src(pages, 64))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	// Many more reads than any level period, forcing repeated cascades.
	for i := 0; i < 400; i++ {
		idx := rng.Intn(40)
		got, err := Read(o, idx)
		if err != nil {
			t.Fatalf("read %d (page %d): %v", i, idx, err)
		}
		if !bytes.Equal(got, pages[idx]) {
			t.Fatalf("read %d: page %d corrupted", i, idx)
		}
	}
	if o.StashPeak > 3*o.Levels() {
		t.Errorf("stash peaked at %d items; buckets under-sized", o.StashPeak)
	}
}

func TestPyramidRepeatedSamePage(t *testing.T) {
	pages := makePages(20, 32, 23)
	o, err := NewPyramidORAM(src(pages, 32))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got, err := Read(o, 11)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pages[11]) {
			t.Fatalf("repeat %d wrong", i)
		}
	}
}

// TestPyramidTraceShapeIndependence: every query touches exactly one bucket
// per level in the same level order, whatever the logical pattern.
func TestPyramidTraceShapeIndependence(t *testing.T) {
	const n, size = 30, 16
	pages := makePages(n, size, 24)
	shape := func(pattern []int) []string {
		o, err := NewPyramidORAM(src(pages, size))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pattern {
			if _, err := Read(o, p); err != nil {
				t.Fatal(err)
			}
		}
		var areas []string
		for _, tch := range o.Log().Touches {
			areas = append(areas, tch.Area)
		}
		return areas
	}
	same := make([]int, 12)
	for i := range same {
		same[i] = 5
	}
	distinct := make([]int, 12)
	for i := range distinct {
		distinct[i] = i
	}
	a, b := shape(same), shape(distinct)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestPyramidDummiesAreFresh: once an item sits in an upper level, the
// lower-level touches are dummies that must not repeat positions in a way
// that correlates with the logical id — concretely, reading the same page k
// times between rebuilds must not touch the same bottom-level bucket k
// times (that would reveal repetition).
func TestPyramidDummiesAreFresh(t *testing.T) {
	const n, size = 64, 16
	pages := makePages(n, size, 25)
	o, err := NewPyramidORAM(src(pages, size))
	if err != nil {
		t.Fatal(err)
	}
	bottom := fmt.Sprintf("level%d", o.Levels())
	positions := map[int]int{}
	// The first read places page 3 in the top level; subsequent reads emit
	// dummies at the bottom.
	for i := 0; i < 8; i++ {
		if _, err := Read(o, 3); err != nil {
			t.Fatal(err)
		}
	}
	for _, tch := range o.Log().Touches {
		if tch.Area == bottom {
			positions[tch.Pos]++
		}
	}
	// An implementation that reuses one dummy bucket puts 7 of the 8 touches
	// in it. Fresh PRF dummies spread the 8 touches over 128 bottom buckets:
	// some bucket collects 3 of them once in ~300 runs (C(8,3)/128² ≈ 0.34 %,
	// too often for a test), 5 of them with probability at most
	// C(8,5)/128⁴ ≈ 2·10⁻⁷.
	for pos, c := range positions {
		if c >= 5 {
			t.Errorf("bottom-level bucket %d touched %d times in 8 reads: %v", pos, c, positions)
		}
	}
}

func TestPyramidStoreInterface(t *testing.T) {
	pages := makePages(8, 16, 26)
	o, err := NewPyramidORAM(src(pages, 16))
	if err != nil {
		t.Fatal(err)
	}
	var s Store = o
	if s.NumPages() != 8 || s.PageSize() != 16 {
		t.Error("meta wrong")
	}
	if _, err := Read(s, -1); err == nil {
		t.Error("negative read accepted")
	}
	if _, err := Read(s, 8); err == nil {
		t.Error("out-of-range read accepted")
	}
}

func TestPyramidEmptyFileRejected(t *testing.T) {
	if _, err := NewPyramidORAM(src(nil, 16)); err == nil {
		t.Error("empty file accepted")
	}
}

func BenchmarkPyramidORAMRead(b *testing.B) {
	pages := makePages(256, 4096, 27)
	o, err := NewPyramidORAM(src(pages, 4096))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(o, i%256); err != nil {
			b.Fatal(err)
		}
	}
}
