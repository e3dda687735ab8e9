package pir

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestShardedORAMCorrectness(t *testing.T) {
	const n, size, shards = 30, 64, 4
	pages := makePages(n, size, 21)
	o, err := NewShardedORAM(src(pages, size), shards, 7)
	if err != nil {
		t.Fatal(err)
	}
	if o.NumPages() != n || o.PageSize() != size || o.NumShards() != shards {
		t.Fatalf("meta: %d pages size %d shards %d", o.NumPages(), o.PageSize(), o.NumShards())
	}
	rng := rand.New(rand.NewSource(3))
	// Far more reads than any shard's shelter, forcing reshuffles in every
	// shard.
	for i := 0; i < 300; i++ {
		idx := rng.Intn(n)
		got, err := Read(o, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pages[idx]) {
			t.Fatalf("read %d of page %d: wrong content", i, idx)
		}
	}
	// Batched reads return request order, including duplicates and
	// cross-shard interleavings.
	batch := []int{29, 0, 5, 5, 17, 2, 0}
	got, err := ReadBatch(context.Background(), o, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range batch {
		if !bytes.Equal(got[i], pages[p]) {
			t.Fatalf("batch slot %d (page %d): wrong content", i, p)
		}
	}
	if _, err := Read(o, n); err == nil {
		t.Error("out-of-range read accepted")
	}
	if _, err := ReadBatch(context.Background(), o, []int{0, -1}); err == nil {
		t.Error("negative page in batch accepted")
	}
}

func TestShardedORAMRejectsBadInputs(t *testing.T) {
	if _, err := NewShardedORAM(src(nil, 16), 2, 1); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := NewShardedORAM(src(makePages(4, 16, 1), 16), 0, 1); err == nil {
		t.Error("zero shards accepted")
	}
	// More shards than pages must clamp, not build empty shards.
	o, err := NewShardedORAM(src(makePages(3, 16, 1), 16), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.NumShards() != 3 {
		t.Errorf("shards = %d, want clamped to 3", o.NumShards())
	}
}

// TestShardedORAMCryptoSeeded: seed 0 is the production mode — shuffle
// seeds come from crypto/rand and reads still return the right pages.
func TestShardedORAMCryptoSeeded(t *testing.T) {
	pages := makePages(20, 32, 17)
	o, err := NewShardedORAM(src(pages, 32), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		got, err := Read(o, i%20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pages[i%20]) {
			t.Fatalf("read %d wrong content", i)
		}
	}
}

// TestShardedORAMConcurrentBatches hammers one sharded store from many
// goroutines (the serving pool's access shape); the race detector guards
// the locking and every result is content-checked.
func TestShardedORAMConcurrentBatches(t *testing.T) {
	const n, size = 48, 32
	pages := makePages(n, size, 22)
	o, err := NewShardedORAM(src(pages, size), 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 20; iter++ {
				batch := make([]int, 12)
				for i := range batch {
					batch[i] = rng.Intn(n)
				}
				got, err := ReadBatch(context.Background(), o, batch)
				if err != nil {
					errs <- err
					return
				}
				for i, p := range batch {
					if !bytes.Equal(got[i], pages[p]) {
						t.Errorf("goroutine %d: batch slot %d wrong", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// shardMainHistogram runs the given logical read pattern against a fresh
// sharded ORAM and accumulates, per shard, how often each main-area
// physical slot was touched.
func shardMainHistogram(t *testing.T, pages [][]byte, size, shards int, seed int64, pattern []int, hist [][]int) {
	t.Helper()
	o, err := NewShardedORAM(src(pages, size), shards, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pattern {
		if _, err := Read(o, p); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < shards; s++ {
		for _, tch := range o.ShardLog(s).Touches {
			if tch.Area == "main" {
				hist[s][tch.Pos]++
			}
		}
	}
}

// chiSquared returns the statistic of obs against a uniform expectation.
func chiSquared(obs []int) float64 {
	total := 0
	for _, c := range obs {
		total += c
	}
	exp := float64(total) / float64(len(obs))
	stat := 0.0
	for _, c := range obs {
		d := float64(c) - exp
		stat += d * d / exp
	}
	return stat
}

// chiSquaredTwoSample compares two histograms over the same bins.
func chiSquaredTwoSample(a, b []int) float64 {
	stat := 0.0
	for i := range a {
		sum := float64(a[i] + b[i])
		if sum == 0 {
			continue
		}
		d := float64(a[i] - b[i])
		stat += d * d / sum
	}
	return stat
}

// chiSquaredCritical approximates the upper critical value at significance
// alpha≈0.001 via the Wilson–Hilferty cube approximation (z = 3.09).
func chiSquaredCritical(df int) float64 {
	z := 3.09
	k := float64(df)
	v := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * v * v * v
}

// TestShardedORAMObliviousnessChiSquared is the statistical obliviousness
// test: over many deterministic runs, the per-shard physical main-area
// access histogram (1) is uniform over the shard's slots and (2) is
// indistinguishable between two maximally different logical sequences that
// deliver identical per-shard read counts — a constant page per shard
// versus a sweep over every page of the shard. The seeds are fixed, so the
// statistic is exactly reproducible.
func TestShardedORAMObliviousnessChiSquared(t *testing.T) {
	const (
		n      = 64 // logical pages
		size   = 32
		shards = 4 // shard size 16, shelter 4, main area 20 slots
		runs   = 400
	)
	pages := makePages(n, size, 33)

	// Both patterns issue exactly one epoch of reads (4) to every shard.
	var constant, sweep []int
	for rep := 0; rep < 4; rep++ {
		for s := 0; s < shards; s++ {
			constant = append(constant, s)      // local page 0 of shard s, every time
			sweep = append(sweep, s+shards*rep) // local page rep of shard s
		}
	}

	shardSlots := 16 + 4 // per-shard main area: pages + dummies
	mkHist := func() [][]int {
		h := make([][]int, shards)
		for s := range h {
			h[s] = make([]int, shardSlots)
		}
		return h
	}
	histA, histB := mkHist(), mkHist()
	for r := 0; r < runs; r++ {
		shardMainHistogram(t, pages, size, shards, int64(1000+r), constant, histA)
		shardMainHistogram(t, pages, size, shards, int64(1000+r), sweep, histB)
	}

	crit := chiSquaredCritical(shardSlots - 1)
	for s := 0; s < shards; s++ {
		// Equal sample sizes per shard: the comparison below is only fair
		// (and the leak model only holds) if both patterns hit the shard
		// equally often.
		totalA, totalB := 0, 0
		for i := range histA[s] {
			totalA += histA[s][i]
			totalB += histB[s][i]
		}
		if totalA != runs*4 || totalB != runs*4 {
			t.Fatalf("shard %d: %d/%d main touches, want %d each", s, totalA, totalB, runs*4)
		}
		// (1) Uniformity: each pattern's physical histogram matches the
		// uniform draw the ORAM promises.
		if stat := chiSquared(histA[s]); stat > crit {
			t.Errorf("shard %d: constant-pattern histogram not uniform: chi2 %.1f > %.1f\n%v",
				s, stat, crit, histA[s])
		}
		if stat := chiSquared(histB[s]); stat > crit {
			t.Errorf("shard %d: sweep-pattern histogram not uniform: chi2 %.1f > %.1f\n%v",
				s, stat, crit, histB[s])
		}
		// (2) Independence: the two logical sequences are statistically
		// indistinguishable from the physical pattern alone.
		if stat := chiSquaredTwoSample(histA[s], histB[s]); stat > crit {
			t.Errorf("shard %d: physical pattern correlates with logical sequence: chi2 %.1f > %.1f",
				s, stat, crit)
		}
	}
}

// TestShardedORAMShardIsolation: reads for one residue class touch only
// that shard — the structural basis of the per-shard obliviousness claim.
func TestShardedORAMShardIsolation(t *testing.T) {
	const n, size, shards = 32, 16, 4
	pages := makePages(n, size, 5)
	o, err := NewShardedORAM(src(pages, size), shards, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Pages ≡ 1 (mod 4) live in shard 1 only.
	for i := 0; i < 6; i++ {
		if _, err := Read(o, 1+4*i); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < shards; s++ {
		touches := len(o.ShardLog(s).Touches)
		if s == 1 && touches == 0 {
			t.Error("target shard untouched")
		}
		if s != 1 && touches != 0 {
			t.Errorf("shard %d touched %d times by foreign reads", s, touches)
		}
	}
}
