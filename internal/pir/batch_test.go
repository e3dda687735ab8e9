package pir

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestXORPIRBatchMatchesSequential: the single-scan multi-query path must
// return exactly what k independent one-page reads return, across odd geometries and
// with duplicate targets in one batch.
func TestXORPIRBatchMatchesSequential(t *testing.T) {
	for _, shape := range oddShapes {
		pages := makePages(shape.n, shape.ps, int64(41*shape.n+shape.ps))
		x, err := NewXORPIR(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]int, 0, 2*shape.n+2)
		for p := 0; p < shape.n; p++ {
			batch = append(batch, p)
		}
		// Duplicates: two queries for one page must stay two independent
		// queries with identical answers.
		batch = append(batch, 0, shape.n-1, shape.n/2)
		got, err := ReadBatch(context.Background(), x, batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(batch) {
			t.Fatalf("%dx%d: %d answers for %d queries", shape.n, shape.ps, len(got), len(batch))
		}
		for i, p := range batch {
			if !bytes.Equal(got[i], pages[p]) {
				t.Fatalf("%dx%d: batch answer %d (page %d) wrong", shape.n, shape.ps, i, p)
			}
			single, err := Read(x, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(single, pages[p]) {
				t.Fatalf("%dx%d: sequential Read(%d) wrong", shape.n, shape.ps, p)
			}
		}
		if _, err := ReadBatch(context.Background(), x, []int{shape.n}); err == nil {
			t.Fatalf("%dx%d: out-of-range batch accepted", shape.n, shape.ps)
		}
		// An empty batch is a valid no-op, as it was under sequential
		// readEach — it draws no selector.
		log := &drawLog{}
		x.rng = log
		empty, err := ReadBatch(context.Background(), x, nil)
		if err != nil || len(empty) != 0 {
			t.Fatalf("%dx%d: empty batch: %v, %d answers", shape.n, shape.ps, err, len(empty))
		}
		if v := log.views(shape.n); len(v) != 0 {
			t.Fatalf("%dx%d: empty batch drew %d selectors", shape.n, shape.ps, len(v))
		}
	}
}

// chiSquaredBits returns the chi-squared statistic of per-bit set counts
// against the fair-coin expectation over `trials` samples.
func chiSquaredBits(counts []int, trials int) float64 {
	expect := float64(trials) / 2
	variance := float64(trials) / 4
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / variance
	}
	return chi2
}

// TestXORPIRBatchSelectorsUniformAndIndependent is the multi-query privacy
// property: in a batched read, every query's server-A selector vector must
// remain (a) marginally uniform per bit, (b) independent of the other
// queries in the same batch, and (c) uncorrelated with its own target —
// exactly as if the k queries had been issued separately. Checked with
// chi-squared statistics over repeated batches against generous thresholds
// (≈10 standard deviations above the degrees of freedom, so a sound
// implementation fails with negligible probability).
func TestXORPIRBatchSelectorsUniformAndIndependent(t *testing.T) {
	const n, ps, trials = 64, 8, 384
	pages := makePages(n, ps, 21)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		t.Fatal(err)
	}
	log := &drawLog{}
	x.rng = log
	// Fixed targets, including a duplicate: two queries for one page must
	// still carry independent randomness.
	targets := []int{3, 17, 17, 42}
	k := len(targets)

	perQuery := make([][]int, k) // [query][bit] set count of selector A
	pairXOR := make([][]int, 0)  // XOR of query-pair selectors, per bit
	pairIdx := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	for j := range perQuery {
		perQuery[j] = make([]int, n)
	}
	for range pairIdx {
		pairXOR = append(pairXOR, make([]int, n))
	}
	atTarget := make([]int, k)

	for trial := 0; trial < trials; trial++ {
		if _, err := ReadBatch(context.Background(), x, targets); err != nil {
			t.Fatal(err)
		}
		selsA := log.views(n)
		if len(selsA) != k {
			t.Fatalf("the store drew %d selectors for %d queries", len(selsA), k)
		}
		for j := range selsA {
			for b := 0; b < n; b++ {
				if selected(selsA[j], b) {
					perQuery[j][b]++
				}
			}
			if selected(selsA[j], targets[j]) {
				atTarget[j]++
			}
		}
		for pi, pr := range pairIdx {
			for b := 0; b < n; b++ {
				if selected(selsA[pr[0]], b) != selected(selsA[pr[1]], b) {
					pairXOR[pi][b]++
				}
			}
		}
	}

	// dof = n bits; 10 sigma above the mean of a chi-squared with n dof.
	threshold := float64(n) + 10*math.Sqrt(2*float64(n))
	for j := range perQuery {
		if chi2 := chiSquaredBits(perQuery[j], trials); chi2 > threshold {
			t.Errorf("query %d: selector bits not uniform (chi2 %.1f > %.1f)", j, chi2, threshold)
		}
		// The target bit itself is a fair coin: the selector leaks nothing
		// about which page the query wants.
		if d := math.Abs(float64(atTarget[j]) - float64(trials)/2); d > 6*math.Sqrt(float64(trials)/4) {
			t.Errorf("query %d: target bit set %d/%d times — correlated with target", j, atTarget[j], trials)
		}
	}
	for pi, pr := range pairIdx {
		if chi2 := chiSquaredBits(pairXOR[pi], trials); chi2 > threshold {
			t.Errorf("queries %v: pairwise XOR not uniform (chi2 %.1f > %.1f) — batch queries correlated", pr, chi2, threshold)
		}
	}
}

// TestXORPIRConcurrentPassSelectorsUniformAndIndependent extends the
// selector privacy property across concurrent passes: when reads from two
// goroutines are inside one store at once, each with its own scratch, each
// read's server-A view must stay marginally uniform per bit and the two
// views must be mutually independent (their XOR is uniform too), exactly as
// if the reads had run alone. Checked with chi-squared statistics against
// ≈10-sigma thresholds.
func TestXORPIRConcurrentPassSelectorsUniformAndIndependent(t *testing.T) {
	const n, ps, trials = 64, 8, 256
	x, err := NewXORPIR(src(makePages(n, ps, 24), ps))
	if err != nil {
		t.Fatal(err)
	}
	log := &drawLog{entered: make(chan struct{}, 2), release: make(chan struct{})}
	x.rng = log

	perBit := make([]int, n)  // both reads' views
	pairXOR := make([]int, n) // XOR of the two views per trial
	results := make(chan error, 2)
	read := func(page int) {
		_, err := Read(x, page)
		results <- err
	}
	for trial := 0; trial < trials; trial++ {
		go read(trial % n)
		go read((trial + 23) % n)
		for i := 0; i < 2; i++ {
			select {
			case <-log.entered:
			case <-time.After(5 * time.Second):
				t.Fatalf("trial %d: a read never drew its selector", trial)
			}
		}
		// Both reads are in the store. Release them one at a time, so the
		// log holds each one's draw in release order.
		for i := 0; i < 2; i++ {
			log.release <- struct{}{}
			if err := <-results; err != nil {
				t.Fatal(err)
			}
		}
		views := log.views(n)
		if len(views) != 2 {
			t.Fatalf("trial %d: two reads drew %d selectors", trial, len(views))
		}
		for bit := 0; bit < n; bit++ {
			for _, v := range views {
				if selected(v, bit) {
					perBit[bit]++
				}
			}
			if selected(views[0], bit) != selected(views[1], bit) {
				pairXOR[bit]++
			}
		}
	}

	threshold := float64(n) + 10*math.Sqrt(2*float64(n))
	if chi2 := chiSquaredBits(perBit, 2*trials); chi2 > threshold {
		t.Errorf("concurrent reads' selector bits not uniform (chi2 %.1f > %.1f)", chi2, threshold)
	}
	if chi2 := chiSquaredBits(pairXOR, trials); chi2 > threshold {
		t.Errorf("concurrent reads' selectors correlated (pair XOR chi2 %.1f > %.1f)", chi2, threshold)
	}
}

// fakeRand adapts math/rand to the store's randomness source so the
// zero-allocation property can be measured without crypto/rand noise.
// (crypto/rand itself reads straight into the caller's buffer; this swap
// just keeps the test hermetic and fast.)
type fakeRand struct{ rng *rand.Rand }

func (f fakeRand) Read(p []byte) (int, error) { return f.rng.Read(p) }

// TestXORPIRReadBatchIntoZeroAllocs pins the allocation-free steady state
// of the single-scan batch path: with the store's listed scan warm and
// caller-provided destination buffers, a batched oblivious read allocates
// nothing — at k = 8 over a range long enough that the pass folds through
// its bucket table, which the listed scan keeps too.
func TestXORPIRReadBatchIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const n, ps, k = 128, 512, 8
	pages := makePages(n, ps, 23)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		t.Fatal(err)
	}
	x.rng = fakeRand{rng: rand.New(rand.NewSource(5))}
	if passBits(k, n, x.arena.wpp, 1) == 1 {
		t.Fatal("geometry does not engage the bucketed fold")
	}
	batch := []int{0, 7, 7, 31, 64, 127, 90, 13}[:k]
	dst := make([][]byte, k)
	for i := range dst {
		dst[i] = make([]byte, ps)
	}
	ctx := context.Background()
	read := func() {
		if err := x.ReadBatchInto(ctx, batch, dst); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the listed scan
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("steady-state ReadBatchInto allocates %.1f objects per batch; want 0", allocs)
	}
	for i, p := range batch {
		if !bytes.Equal(dst[i], pages[p]) {
			t.Fatalf("answer %d (page %d) wrong after alloc-free reads", i, p)
		}
	}
}

// TestXORPIRAnswerSharesZeroAllocs is the same pin for the replica half of
// fleet mode: k = 8 client-supplied selectors answered through the bucketed
// fold allocate nothing in the steady state, on the serial kernel and on the
// segmented one.
func TestXORPIRAnswerSharesZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const n, ps, k = 256, 512, 8
	pages := makePages(n, ps, 61)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	sels, dst := make([][]byte, k), make([][]byte, k)
	for j := range sels {
		sels[j] = make([]byte, x.SelectorBytes())
		rng.Read(sels[j])
		dst[j] = make([]byte, ps)
	}
	ctx := context.Background()
	answer := func() {
		if err := x.AnswerShares(ctx, sels, dst); err != nil {
			t.Fatal(err)
		}
	}
	for _, nw := range []int{1, 4} {
		nw = setWidth(x, nw)
		if passBits(k, n, x.arena.wpp, nw) == 1 {
			t.Fatalf("workers=%d: geometry does not engage the bucketed fold", nw)
		}
		answer() // warm: the listed scan, its tables and partials, worker goroutines
		if allocs := testing.AllocsPerRun(100, answer); allocs != 0 {
			t.Fatalf("workers=%d: steady-state AnswerShares allocates %.1f objects per batch; want 0", nw, allocs)
		}
		for j, sel := range sels {
			if !bytes.Equal(dst[j], xorAnswerBytes(pages, ps, sel)) {
				t.Fatalf("workers=%d: share %d wrong after alloc-free answers", nw, j)
			}
		}
	}
}
