package pir

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"errors"
	"io"
	"math/rand"
	"sync"
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

	// A read the source fails (an injected EIO) served nothing and counts
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

// drawLog is the test hook on XORPIR.rng: it fills every read from
// crypto/rand and keeps a copy, so a test sees each query's draw — server
// A's view of the query, once the bits past the last page are cleared — in
// draw order. With entered set, every read first announces itself there and
// waits for a receive on release, so a test can hold several reads inside
// one store at once.
type drawLog struct {
	entered chan struct{}
	release chan struct{}

	mu    sync.Mutex
	draws [][]byte
}

func (d *drawLog) Read(p []byte) (int, error) {
	if d.entered != nil {
		d.entered <- struct{}{}
		<-d.release
	}
	if _, err := io.ReadFull(crand.Reader, p); err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.draws = append(d.draws, append([]byte(nil), p...))
	d.mu.Unlock()
	return len(p), nil
}

// views returns the draws since the last call as server A's views over a
// numPages-page file, the bits past the last page cleared.
func (d *drawLog) views(numPages int) [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.draws
	d.draws = nil
	for _, v := range out {
		for bit := numPages; bit < 8*len(v); bit++ {
			v[bit/8] &^= 1 << (bit % 8)
		}
	}
	return out
}

// TestXORPIRServerViewsDifferOnlyAtTarget: every query of a batch draws its
// own selector, server A's view; server B's view is that draw with the
// target's bit flipped and nothing else — per query, duplicates included,
// over a file whose length is not a whole number of bytes.
func TestXORPIRServerViewsDifferOnlyAtTarget(t *testing.T) {
	const n, ps = 37, 16
	pages := makePages(n, ps, 9)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		t.Fatal(err)
	}
	log := &drawLog{}
	x.rng = log
	targets := []int{0, 5, 5, 36, 20}
	got, err := ReadBatch(context.Background(), x, targets)
	if err != nil {
		t.Fatal(err)
	}
	for j, p := range targets {
		if !bytes.Equal(got[j], pages[p]) {
			t.Fatalf("query %d (page %d): wrong answer", j, p)
		}
	}
	if v := log.views(n); len(v) != len(targets) {
		t.Fatalf("the store drew %d selectors for %d queries", len(v), len(targets))
	}

	// The shares the store folds are SplitShares', from the same source.
	nb := (n + 7) / 8
	selsA, selsB := make([][]byte, len(targets)), make([][]byte, len(targets))
	for j := range targets {
		selsA[j], selsB[j] = make([]byte, nb), make([]byte, nb)
	}
	if err := SplitShares(log, n, targets, selsA, selsB); err != nil {
		t.Fatal(err)
	}
	draws := log.views(n)
	if len(draws) != len(targets) {
		t.Fatalf("SplitShares drew %d selectors for %d queries", len(draws), len(targets))
	}
	for j, target := range targets {
		if !bytes.Equal(selsA[j], draws[j]) {
			t.Fatalf("query %d: server A's view is not its own draw", j)
		}
		diffBits, diffAt := 0, -1
		for bit := 0; bit < 8*nb; bit++ {
			if selected(selsA[j], bit) != selected(selsB[j], bit) {
				diffBits++
				diffAt = bit
			}
		}
		if diffBits != 1 || diffAt != target {
			t.Fatalf("query %d: views differ at %d bit(s), position %d; want exactly bit %d", j, diffBits, diffAt, target)
		}
	}
}

func TestXORPIRSingleServerViewIsUniform(t *testing.T) {
	// Each query's server-A view is fresh uniform randomness: across many
	// batches of two reads of the SAME page, each selection bit of each
	// query's view should be set about half the time.
	pages := makePages(64, 8, 10)
	x, err := NewXORPIR(src(pages, 8))
	if err != nil {
		t.Fatal(err)
	}
	log := &drawLog{}
	x.rng = log
	const trials = 400
	counts := [2][]int{make([]int, 64), make([]int, 64)}
	for i := 0; i < trials; i++ {
		if _, err := ReadBatch(context.Background(), x, []int{13, 13}); err != nil {
			t.Fatal(err)
		}
		views := log.views(64)
		if len(views) != 2 {
			t.Fatalf("the store drew %d selectors for 2 queries", len(views))
		}
		for j, v := range views {
			for b := 0; b < 64; b++ {
				if selected(v, b) {
					counts[j][b]++
				}
			}
		}
	}
	for j := range counts {
		for b, c := range counts[j] {
			if c < trials/4 || c > trials*3/4 {
				t.Errorf("query %d: bit %d set %d/%d times; server view not uniform", j, b, c, trials)
			}
		}
	}
}
