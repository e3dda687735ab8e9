package pir

import (
	"bytes"
	"context"
	"crypto/rand"
	"testing"

	"repro/internal/pagefile"
)

// arenaSharesPage reports whether a write through x's arena shows in page
// (the source's page 0), restoring the arena before it returns.
func arenaSharesPage(x *XORPIR, page []byte) bool {
	before := page[0]
	x.arena.words[0] ^= ^uint64(0)
	shared := page[0] != before
	x.arena.words[0] ^= ^uint64(0)
	return shared
}

// checkArenaAnswers compares ReadBatchInto (every page, one batch) and
// AnswerShares (empty, all-ones and random selectors) against the byte
// oracle over want, the zero-padded reference pages.
func checkArenaAnswers(t *testing.T, x *XORPIR, want [][]byte, ps int) {
	t.Helper()
	ctx := context.Background()
	n, nb := len(want), x.SelectorBytes()
	pages := make([]int, n)
	for p := range pages {
		pages[p] = p
	}
	got, err := ReadBatch(ctx, x, pages)
	if err != nil {
		t.Fatal(err)
	}
	for p := range pages {
		sel := make([]byte, nb)
		sel[p/8] |= 1 << (p % 8)
		if !bytes.Equal(got[p], xorAnswerBytes(want, ps, sel)) {
			t.Fatalf("ReadBatchInto: page %d wrong", p)
		}
	}
	sels := [][]byte{make([]byte, nb), bytes.Repeat([]byte{0xFF}, nb), make([]byte, nb), make([]byte, nb)}
	for _, sel := range sels[2:] {
		if _, err := rand.Read(sel); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([][]byte, len(sels))
	for i := range dst {
		dst[i] = make([]byte, ps)
	}
	if err := x.AnswerShares(ctx, sels, dst); err != nil {
		t.Fatal(err)
	}
	for i, sel := range sels {
		if !bytes.Equal(dst[i], xorAnswerBytes(want, ps, sel)) {
			t.Fatalf("AnswerShares: selector %d wrong", i)
		}
	}
}

// TestXORPIRArenaView: a store over a build's pagefile.File with a page size
// that is a multiple of 8 answers from the File's own buffer, with no copy;
// every other source — a PageSlice, even one cut from a single buffer, an
// odd page size, short pages — is packed into a copy. Either way the answers
// equal the byte oracle's at widths 1 and 2, and pages appended to the File
// after the store was built (enough to move its buffer) change nothing.
func TestXORPIRArenaView(t *testing.T) {
	fileOf := func(pages [][]byte, ps int) pagefile.Reader {
		f := pagefile.NewFile("F", ps)
		for _, p := range pages {
			f.MustAppendPage(p)
		}
		return f
	}
	oneBuffer := func(pages [][]byte, ps int) pagefile.Reader {
		flat := make([]byte, 0, len(pages)*ps)
		for _, p := range pages {
			flat = append(flat, p...)
		}
		return src(sliceRows(nil, flat, ps), ps)
	}
	short := func(pages [][]byte, ps int) pagefile.Reader {
		cut := make([][]byte, len(pages))
		for i, p := range pages {
			cut[i] = p[:ps-i%ps]
		}
		return src(cut, ps)
	}
	cases := []struct {
		name  string
		n, ps int
		build func([][]byte, int) pagefile.Reader
		view  bool
	}{
		{"File/64B", 37, 64, fileOf, true},
		{"File/4KB", 9, 4096, fileOf, true},
		{"File/odd20B", 37, 20, fileOf, false},
		{"PageSlice/64B", 37, 64, src, false},
		{"PageSlice/oneBuffer", 37, 64, oneBuffer, false},
		{"PageSlice/short", 37, 64, short, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.build(makePages(tc.n, tc.ps, int64(tc.n*tc.ps)), tc.ps)
			want := make([][]byte, tc.n)
			for i := range want {
				p, err := r.Page(i)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = make([]byte, tc.ps)
				copy(want[i], p)
			}
			x, err := NewXORPIR(r)
			if err != nil {
				t.Fatal(err)
			}
			page0, _ := r.Page(0)
			if got := arenaSharesPage(x, page0); got != (tc.view && littleEndian) {
				t.Errorf("arena shares the source's memory = %v, want %v", got, tc.view && littleEndian)
			}
			for _, width := range []int{1, 2} {
				x.SetScanWorkers(width)
				checkArenaAnswers(t, x, want, tc.ps)
			}
			if f, ok := r.(*pagefile.File); ok {
				for i := 0; i < 2*tc.n; i++ {
					f.MustAppendPage(bytes.Repeat([]byte{0xA5}, tc.ps))
				}
				if x.NumPages() != tc.n {
					t.Fatalf("store grew to %d pages with the File", x.NumPages())
				}
				for _, width := range []int{1, 2} {
					x.SetScanWorkers(width)
					checkArenaAnswers(t, x, want, tc.ps)
				}
			}
		})
	}
}
