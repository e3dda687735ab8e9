package pir

import (
	"bytes"
	"context"
	"crypto/rand"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/internal/pagefile"
)

// arenaSharesPage reports whether x's arena starts at page, the source's
// page 0: whether it views the source's memory rather than a copy.
func arenaSharesPage(x *XORPIR, page []byte) bool {
	return unsafe.Pointer(unsafe.SliceData(x.arena.words)) == unsafe.Pointer(unsafe.SliceData(page))
}

// writeUnalignedContainer hand-builds a one-file container whose data region
// starts right after the meta block's CRC, at a byte offset that is not a
// multiple of 8, as writers did before they aligned the region. Those
// writers wrote format version 1, whose meta block also carries a scheme
// name and an (here empty) encoded plan.
func writeUnalignedContainer(t *testing.T, pages [][]byte, ps int) string {
	t.Helper()
	var data []byte
	for _, p := range pages {
		data = append(data, p...)
	}
	const scheme, name = "CI", "F"
	metaLen := 1 + len(scheme) + 4 + 4 + 2 + 1 + len(name) + 4 + 8 + 8 + 4
	offset := 4 + 2 + 4 + metaLen + 4
	if offset%8 == 0 {
		t.Fatalf("data region at %d is 8-byte aligned", offset)
	}
	meta := pagefile.NewEnc(metaLen)
	meta.U8(uint8(len(scheme))).Raw([]byte(scheme)).U32(0).U32(0).U16(1)
	meta.U8(uint8(len(name))).Raw([]byte(name)).U32(uint32(ps)).U64(uint64(len(pages))).U64(uint64(offset))
	meta.U32(crc32.ChecksumIEEE(data))
	file := pagefile.NewEnc(offset + len(data))
	file.Raw([]byte(pagefile.ContainerMagic)).U16(1).U32(uint32(meta.Len()))
	file.Raw(meta.Bytes()).U32(crc32.ChecksumIEEE(meta.Bytes())).Raw(data)
	path := filepath.Join(t.TempDir(), "unaligned.psdb")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openedFile opens the container at path, checks that its one file serves
// pages, and returns that file; the container closes when t ends.
func openedFile(t *testing.T, path string, pages [][]byte) pagefile.Reader {
	t.Helper()
	c, err := pagefile.OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	f := c.Files[0]
	for i, want := range pages {
		if got, err := f.Page(i); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("opened container: page %d differs (%v)", i, err)
		}
	}
	return f
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

// TestXORPIRArenaView: a store over a pagefile.File with a page size that is
// a multiple of 8 — a build's, or a view of an opened container's mapping —
// answers from the File's own memory, with no copy; every other source — a
// PageSlice, even one cut from a single buffer, an odd page size, short
// pages, a container whose data region starts unaligned — is packed into a
// copy. Either way the answers equal the byte oracle's at widths 1 and 2,
// and pages appended to the File after the store was built (enough to move
// its buffer, or to copy a mapped File to the heap) change nothing.
func TestXORPIRArenaView(t *testing.T) {
	fileOf := func(_ *testing.T, pages [][]byte, ps int) pagefile.Reader {
		f := pagefile.NewFile("F", ps)
		for _, p := range pages {
			f.MustAppendPage(p)
		}
		return f
	}
	slices := func(_ *testing.T, pages [][]byte, ps int) pagefile.Reader { return src(pages, ps) }
	oneBuffer := func(_ *testing.T, pages [][]byte, ps int) pagefile.Reader {
		flat := make([]byte, 0, len(pages)*ps)
		for _, p := range pages {
			flat = append(flat, p...)
		}
		return src(sliceRows(nil, flat, ps), ps)
	}
	short := func(_ *testing.T, pages [][]byte, ps int) pagefile.Reader {
		cut := make([][]byte, len(pages))
		for i, p := range pages {
			cut[i] = p[:ps-i%ps]
		}
		return src(cut, ps)
	}
	opened := func(t *testing.T, pages [][]byte, ps int) pagefile.Reader {
		path := filepath.Join(t.TempDir(), "db.psdb")
		spec := pagefile.ContainerSpec{Files: []pagefile.Reader{fileOf(t, pages, ps)}}
		if err := pagefile.WriteContainer(path, spec); err != nil {
			t.Fatal(err)
		}
		return openedFile(t, path, pages)
	}
	unaligned := func(t *testing.T, pages [][]byte, ps int) pagefile.Reader {
		return openedFile(t, writeUnalignedContainer(t, pages, ps), pages)
	}
	cases := []struct {
		name  string
		n, ps int
		build func(*testing.T, [][]byte, int) pagefile.Reader
		view  bool
	}{
		{"File/64B", 37, 64, fileOf, true},
		{"File/4KB", 9, 4096, fileOf, true},
		{"File/odd20B", 37, 20, fileOf, false},
		{"Container/4KB", 9, 4096, opened, true},
		{"Container/unaligned", 9, 4096, unaligned, false},
		{"PageSlice/64B", 37, 64, slices, false},
		{"PageSlice/oneBuffer", 37, 64, oneBuffer, false},
		{"PageSlice/short", 37, 64, short, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.build(t, makePages(tc.n, tc.ps, int64(tc.n*tc.ps)), tc.ps)
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
				setWidth(x, width)
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
					setWidth(x, width)
					checkArenaAnswers(t, x, want, tc.ps)
				}
			}
		})
	}
}
