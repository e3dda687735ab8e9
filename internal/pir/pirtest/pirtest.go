// Package pirtest holds the fixtures that put XOR-PIR's segmented kernel
// under test from outside package pir. A store works out its scan width
// from GOMAXPROCS and its file's size (one worker per 512 KiB of file, at
// most GOMAXPROCS), so a test that needs a parallel pass raises the one and
// hosts enough of the other.
package pirtest

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/pagefile"
	"repro/internal/pir"
)

// WideBytes is the size of WideFile and the size WideXORStores pads smaller
// files to: twice the scan-width floor, so a store over it scans at width 2
// once GOMAXPROCS is at least 2.
const WideBytes = 1 << 20

// AtLeastProcs raises GOMAXPROCS to n for the rest of the test, so a store
// built now derives a scan width above 1 even on a one-core run.
func AtLeastProcs(t testing.TB, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// WideFile returns a WideBytes file of 256 pages of 4 KB, page i holding the
// byte i+1 throughout.
func WideFile(name string) *pagefile.File {
	const pageSize = pagefile.DefaultPageSize
	f := pagefile.NewFile(name, pageSize)
	for i := 0; i < WideBytes/pageSize; i++ {
		f.MustAppendPage(bytes.Repeat([]byte{byte(i + 1)}, pageSize))
	}
	return f
}

// WideXORStores returns a store factory whose every store scans at a width
// of at least 2: it raises GOMAXPROCS to 2 for the test, pads a file smaller
// than WideBytes with zero pages past its last page, and fails the build of
// any store that still derives a width below 2. A file of WideBytes or more
// is served by XOR-PIR as it is, share face included; a padded one only
// answers whole-page reads (see padded).
func WideXORStores(t testing.TB) func(pagefile.Reader) (pir.Store, error) {
	AtLeastProcs(t, 2)
	return func(r pagefile.Reader) (pir.Store, error) {
		f, pad := r, pagefile.Bytes(r) < WideBytes
		if pad {
			var err error
			if f, err = padTo(r, WideBytes); err != nil {
				return nil, err
			}
		}
		x, err := pir.NewXORPIR(f)
		if err != nil {
			return nil, err
		}
		if w := x.ScanWorkers(); w < 2 {
			return nil, fmt.Errorf("pirtest: %s (%d bytes served) scans at width %d, want >= 2", r.Name(), pagefile.Bytes(f), w)
		}
		if !pad {
			return x, nil
		}
		return padded{x: x, pages: r.NumPages()}, nil
	}
}

// padTo copies r into a file padded with zero pages to at least n bytes.
func padTo(r pagefile.Reader, n int64) (*pagefile.File, error) {
	f := pagefile.NewFile(r.Name(), r.PageSize())
	for i := 0; i < r.NumPages(); i++ {
		p, err := r.Page(i)
		if err != nil {
			return nil, err
		}
		f.MustAppendPage(p)
	}
	for pagefile.Bytes(f) < n {
		f.MustAppendPage(nil)
	}
	return f, nil
}

// padded is an XOR-PIR store over a padded file that reports, and reads
// within, the file's own page count, so every answer is a page of the file.
// It has no selector-share face: a share's selector would be sized for the
// padded file, so a padded store cannot be hosted as a fleet replica.
type padded struct {
	x     *pir.XORPIR
	pages int
}

func (p padded) NumPages() int { return p.pages }

func (p padded) PageSize() int { return p.x.PageSize() }

func (p padded) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	for _, i := range pages {
		if i < 0 || i >= p.pages {
			return fmt.Errorf("pirtest: page %d out of range [0,%d)", i, p.pages)
		}
	}
	return p.x.ReadBatchInto(ctx, pages, dst)
}

func (p padded) ScanStats() (pagesScanned, scans uint64) { return p.x.ScanStats() }
