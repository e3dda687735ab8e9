package pir

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pagefile"
)

// src wraps raw pages as the Reader the store constructors take.
func src(pages [][]byte, pageSize int) pagefile.Reader {
	return pagefile.SlicePages("F", pageSize, pages)
}

func makePages(n, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, size)
		rng.Read(pages[i])
	}
	return pages
}

func TestPlainStore(t *testing.T) {
	pages := makePages(5, 64, 1)
	s := NewPlain(src(pages, 64))
	if s.NumPages() != 5 || s.PageSize() != 64 {
		t.Fatalf("meta: %d pages size %d", s.NumPages(), s.PageSize())
	}
	got, err := Read(s, 3)
	if err != nil || !bytes.Equal(got, pages[3]) {
		t.Fatalf("Read(3) = %v, %v", got, err)
	}
	if _, err := Read(s, 5); err == nil {
		t.Error("out-of-range read accepted")
	}
	if _, err := Read(s, -1); err == nil {
		t.Error("negative read accepted")
	}
	if pages, scans := s.ScanStats(); pages != 1 || scans != 1 {
		t.Errorf("ScanStats = %d pages, %d scans after one served read; want 1, 1", pages, scans)
	}

	// A read the source fails (EIO under -chaos) served nothing and counts
	// as nothing.
	broken := NewPlain(failingReader{src(pages, 64)})
	if _, err := Read(broken, 3); err == nil {
		t.Fatal("failed page read reported success")
	}
	if pages, scans := broken.ScanStats(); pages != 0 || scans != 0 {
		t.Errorf("ScanStats = %d pages, %d scans after only a failed read; want 0, 0", pages, scans)
	}
}

// failingReader is a page source whose every read fails.
type failingReader struct{ pagefile.Reader }

func (failingReader) Page(int) ([]byte, error) { return nil, errors.New("input/output error") }

func TestXORPIRCorrectnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		size := 1 + rng.Intn(100)
		pages := makePages(n, size, seed)
		x, err := NewXORPIR(src(pages, size))
		if err != nil {
			return false
		}
		idx := rng.Intn(n)
		got, err := Read(x, idx)
		return err == nil && bytes.Equal(got, pages[idx])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestXORPIRServerViewsDifferOnlyAtTarget(t *testing.T) {
	pages := makePages(32, 16, 9)
	x, err := NewXORPIR(src(pages, 16))
	if err != nil {
		t.Fatal(err)
	}
	for target := 0; target < 32; target += 5 {
		if _, err := Read(x, target); err != nil {
			t.Fatal(err)
		}
		selA, selB := x.LastQueries()
		diffBits := 0
		diffAt := -1
		for i := range selA {
			d := selA[i] ^ selB[i]
			for b := 0; b < 8; b++ {
				if d&(1<<b) != 0 {
					diffBits++
					diffAt = i*8 + b
				}
			}
		}
		if diffBits != 1 || diffAt != target {
			t.Fatalf("queries differ at %d bit(s), position %d; want exactly bit %d", diffBits, diffAt, target)
		}
	}
}

func TestXORPIRSingleServerViewIsUniform(t *testing.T) {
	// Each individual server's query vector is fresh uniform randomness:
	// across many reads of the SAME page, each selection bit should be set
	// about half the time.
	pages := makePages(64, 8, 10)
	x, err := NewXORPIR(src(pages, 8))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 400
	counts := make([]int, 64)
	for i := 0; i < trials; i++ {
		if _, err := Read(x, 13); err != nil {
			t.Fatal(err)
		}
		selA, _ := x.LastQueries()
		for b := 0; b < 64; b++ {
			if selA[b/8]&(1<<(b%8)) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		if c < trials/4 || c > trials*3/4 {
			t.Errorf("bit %d set %d/%d times; server view not uniform", b, c, trials)
		}
	}
}
