package pir

import (
	"bytes"
	"context"
	"crypto/rand"
	"testing"
)

// xorPages folds the pages selected by sel into one page-sized XOR.
func xorPages(pages [][]byte, sel []byte, pageSize int) []byte {
	out := make([]byte, pageSize)
	for p := range pages {
		if sel[p/8]&(1<<(p%8)) != 0 {
			for i, b := range pages[p] {
				out[i] ^= b
			}
		}
	}
	return out
}

// TestAnswerSharesMatchesReference: the single-scan share path must return,
// for every selector, exactly the XOR of the selected pages — including
// the empty selector, the all-ones selector, and selectors with trailing
// bits set beyond the page count (which must select nothing) — whether the
// answers are folded in the reply buffers in place or unpacked into them.
func TestAnswerSharesMatchesReference(t *testing.T) {
	for _, shape := range oddShapes {
		pages := makePages(shape.n, shape.ps, int64(17*shape.n+shape.ps))
		x, err := NewXORPIR(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		nb := x.SelectorBytes()
		if nb != (shape.n+7)/8 {
			t.Fatalf("%dx%d: SelectorBytes %d", shape.n, shape.ps, nb)
		}
		sels := [][]byte{
			make([]byte, nb),               // empty: XOR of nothing
			bytes.Repeat([]byte{0xFF}, nb), // everything, trailing bits included
			make([]byte, nb),               // random
		}
		if _, err := rand.Read(sels[2]); err != nil {
			t.Fatal(err)
		}
		// The answers land in buffers cut from one dirty buffer: from an
		// aligned start, where they are folded into in place when the page
		// size allows it, and from an odd one, where they never are.
		for _, off := range []int{0, 1} {
			flat := bytes.Repeat([]byte{0xA5}, off+len(sels)*shape.ps+1)
			dst := make([][]byte, len(sels))
			for i := range dst {
				dst[i] = flat[off+i*shape.ps : off+(i+1)*shape.ps]
			}
			if err := x.AnswerShares(context.Background(), sels, dst); err != nil {
				t.Fatalf("%dx%d: %v", shape.n, shape.ps, err)
			}
			for i, sel := range sels {
				want := xorPages(pages, sel, shape.ps)
				if !bytes.Equal(dst[i], want) {
					t.Fatalf("%dx%d, offset %d: share answer %d wrong", shape.n, shape.ps, off, i)
				}
			}
			if flat[len(flat)-1] != 0xA5 || (off == 1 && flat[0] != 0xA5) {
				t.Fatalf("%dx%d, offset %d: a share answer wrote past its buffer", shape.n, shape.ps, off)
			}
		}
	}
}

// TestAnswerSharesReconstruct: splitting a query into selA and
// selA ^ e_target and XORing the two share answers — what the fleet client
// does across two replica daemons — must yield the target page exactly.
func TestAnswerSharesReconstruct(t *testing.T) {
	const n, ps = 37, 48
	pages := makePages(n, ps, 7)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		t.Fatal(err)
	}
	nb := x.SelectorBytes()
	for target := 0; target < n; target++ {
		selA := make([]byte, nb)
		if _, err := rand.Read(selA); err != nil {
			t.Fatal(err)
		}
		selB := append([]byte(nil), selA...)
		selB[target/8] ^= 1 << (target % 8)
		dst := [][]byte{make([]byte, ps), make([]byte, ps)}
		if err := x.AnswerShares(context.Background(), [][]byte{selA, selB}, dst); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, ps)
		for i := range got {
			got[i] = dst[0][i] ^ dst[1][i]
		}
		if !bytes.Equal(got, pages[target]) {
			t.Fatalf("target %d: reconstruction wrong", target)
		}
	}
}

// TestAnswerSharesValidation: length mismatches are rejected and empty
// batches are no-ops.
func TestAnswerSharesValidation(t *testing.T) {
	const n, ps = 10, 16
	pages := makePages(n, ps, 3)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		t.Fatal(err)
	}
	nb := x.SelectorBytes()
	if err := x.AnswerShares(context.Background(), [][]byte{make([]byte, nb+1)},
		[][]byte{make([]byte, ps)}); err == nil {
		t.Error("oversized selector accepted")
	}
	if err := x.AnswerShares(context.Background(), [][]byte{make([]byte, nb)}, nil); err == nil {
		t.Error("missing dst accepted")
	}
	if err := x.AnswerShares(context.Background(), nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestSplitSharesSelectOnePage: for every page of files whose length is and
// is not a whole number of bytes, the two shares XOR to that page's bit
// alone and both are zero past the last page; an out-of-range page is
// refused.
func TestSplitSharesSelectOnePage(t *testing.T) {
	for _, numPages := range []int{1, 7, 8, 9, 4097} {
		nb := (numPages + 7) / 8
		pages := make([]int, numPages)
		selsA, selsB := make([][]byte, numPages), make([][]byte, numPages)
		for p := range pages {
			pages[p] = p
			selsA[p], selsB[p] = make([]byte, nb), make([]byte, nb)
		}
		if err := SplitShares(rand.Reader, numPages, pages, selsA, selsB); err != nil {
			t.Fatalf("%d pages: %v", numPages, err)
		}
		for p := range pages {
			for bit := 0; bit < 8*nb; bit++ {
				a, b := selsA[p][bit/8]>>(bit%8)&1, selsB[p][bit/8]>>(bit%8)&1
				if set := a^b == 1; set != (bit == p) {
					t.Fatalf("%d pages, page %d: bit %d of A xor B is set = %v", numPages, p, bit, set)
				}
				if bit >= numPages && a|b != 0 {
					t.Fatalf("%d pages, page %d: share bit %d past the last page is set", numPages, p, bit)
				}
			}
		}
		for _, bad := range []int{-1, numPages} {
			if err := SplitShares(rand.Reader, numPages, []int{bad}, selsA[:1], selsB[:1]); err == nil {
				t.Errorf("%d pages: page %d split", numPages, bad)
			}
		}
	}
}
