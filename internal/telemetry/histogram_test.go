package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestBucketRoundTrip: every bucket's inclusive upper bound maps back into
// that bucket, bucket boundaries are monotone, and neighbouring values
// around each boundary land on the two sides — the indexing math has no
// off-by-one holes anywhere in the 64-bit range.
func TestBucketRoundTrip(t *testing.T) {
	var prev uint64
	for idx := 0; idx < histBuckets; idx++ {
		up := bucketUpper(idx)
		if got := bucketIndex(up); got != idx {
			t.Fatalf("bucketIndex(bucketUpper(%d)=%d) = %d", idx, up, got)
		}
		if idx > 0 && up <= prev {
			t.Fatalf("bucket %d upper %d not monotone after %d", idx, up, prev)
		}
		if up < math.MaxUint64 {
			if got := bucketIndex(up + 1); got != idx+1 {
				t.Fatalf("bucketIndex(%d) = %d, want %d", up+1, got, idx+1)
			}
		}
		prev = up
	}
}

// TestQuantileAccuracyBounds records known distributions and asserts every
// reported quantile is an upper bound within the documented relative error
// (1/16 for values >= 16, exact below) of the true order statistic —
// including values sitting exactly on bucket boundaries.
func TestQuantileAccuracyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string][]int64{
		"uniform_small":  nil, // filled below: 0..15, exact-bucket regime
		"uniform_wide":   nil,
		"lognormal":      nil,
		"boundary_exact": {15, 16, 17, 31, 32, 33, 1023, 1024, 1025, 1<<40 - 1, 1 << 40},
	}
	for i := 0; i < 5000; i++ {
		distributions["uniform_small"] = append(distributions["uniform_small"], rng.Int63n(16))
		distributions["uniform_wide"] = append(distributions["uniform_wide"], rng.Int63n(1<<32))
		distributions["lognormal"] = append(distributions["lognormal"],
			int64(math.Exp(rng.NormFloat64()*2+10)))
	}
	for name, values := range distributions {
		t.Run(name, func(t *testing.T) {
			h := NewHistogram(HistogramOpts{})
			sorted := append([]int64(nil), values...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, v := range values {
				h.Observe(v)
			}
			snap := h.Snapshot()
			if snap.Count != uint64(len(values)) {
				t.Fatalf("count = %d, want %d", snap.Count, len(values))
			}
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
				rank := int(math.Ceil(q * float64(len(sorted))))
				if rank < 1 {
					rank = 1
				}
				exact := float64(sorted[rank-1])
				got := snap.Quantile(q)
				if got < exact {
					t.Errorf("q%.3f = %v below exact %v", q, got, exact)
				}
				// The bound: got is the inclusive upper bound of exact's
				// bucket, so got <= exact*(1+1/16) + 1 always.
				if limit := exact*(1+1.0/histSub) + 1; got > limit {
					t.Errorf("q%.3f = %v exceeds bound %v (exact %v)", q, got, limit, exact)
				}
			}
		})
	}
}

// TestQuantileEdgeCases: empty snapshots, single observations, and
// out-of-range q values behave predictably.
func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Errorf("empty quantile = %v, want NaN", empty.Quantile(0.5))
	}
	h := NewHistogram(HistogramOpts{})
	h.Observe(7)
	s := h.Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(q); got != 7 {
			t.Errorf("single-value Quantile(%v) = %v, want 7", q, got)
		}
	}
	h.Observe(-5) // clamps to 0
	if got := h.Snapshot().Quantile(0.25); got != 0 {
		t.Errorf("clamped negative lands at %v, want bucket 0", got)
	}
	var nilH *Histogram
	nilH.Observe(3) // must not panic
	if nilH.Count() != 0 || nilH.Snapshot().Count != 0 {
		t.Error("nil histogram reports observations")
	}
}

// TestHistogramConcurrentRecordSnapshot hammers one histogram from many
// recorders while snapshots are taken concurrently; run under -race this
// doubles as the data-race proof, and the final accounting must balance
// exactly.
func TestHistogramConcurrentRecordSnapshot(t *testing.T) {
	const (
		recorders = 8
		perG      = 5000
	)
	h := NewHistogram(Seconds())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshotters: internal consistency only (no torn reads;
	// monotone counts).
	var snapWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if s.Count < last {
					t.Error("snapshot count went backwards")
					return
				}
				last = s.Count
			}
		}()
	}
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	final := h.Snapshot()
	if final.Count != recorders*perG {
		t.Fatalf("final count = %d, want %d", final.Count, recorders*perG)
	}
}

// TestObserveZeroAllocs pins the hot-path guarantee: recording into a
// histogram, counter and gauge allocates nothing. Race-gated like the
// serving-path alloc tests (the race detector's instrumentation allocates).
func TestObserveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	reg := NewRegistry()
	h := reg.Histogram("t_seconds", "test", Seconds(), L("db", "CI"))
	c := reg.Counter("t_total", "test", L("db", "CI"))
	g := reg.Gauge("t_inflight", "test", L("db", "CI"))
	var v int64
	record := func() {
		v = (v*1664525 + 1013904223) & 0x3fffffff
		h.Observe(v)
		c.Inc()
		g.Set(v)
	}
	if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
		t.Fatalf("hot-path record allocates %.1f objects per run; want 0", allocs)
	}
}

// TestSubDelta: snapshot differencing isolates exactly the observations
// recorded in between.
func TestSubDelta(t *testing.T) {
	h := NewHistogram(HistogramOpts{})
	h.Observe(10)
	h.Observe(100)
	before := h.Snapshot()
	h.Observe(1000)
	d := h.Snapshot().Sub(before)
	if d.Count != 1 || d.Sum != 1000 {
		t.Fatalf("delta count/sum = %d/%d, want 1/1000", d.Count, d.Sum)
	}
	if got := d.Quantile(0.5); got < 1000 || got > 1000*(1+1.0/histSub)+1 {
		t.Fatalf("delta median %v not bounding 1000", got)
	}
}
