package pir

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// workerFanOuts are the group widths the equivalence tests force, chosen to
// exercise submitter-only (1), even splits, odd splits, and widths at or
// beyond the page count of the smaller shapes (SetScanWorkers clamps).
var workerFanOuts = []int{1, 2, 3, 4, 8}

// TestAnswerAllParallelMatchesSerial pins the kernel-level contract: the
// segmented parallel fold must produce byte-identical accumulators to the
// serial single-scan kernel, across the odd geometries (tail words, 1-page
// files) and for k=1 as well as wide batches.
func TestAnswerAllParallelMatchesSerial(t *testing.T) {
	for _, shape := range oddShapes {
		pages := makePages(shape.n, shape.ps, int64(13*shape.n+shape.ps))
		arena, err := newWordArena(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		group := newScanGroup(1, shape.n)
		pool := newArenaScratch()
		var table []uint64
		rng := rand.New(rand.NewSource(int64(shape.n)))
		nbytes := (shape.n + 7) / 8
		for _, k := range []int{1, 3, 8} {
			sels := make([][]byte, k)
			want := make([][]uint64, k)
			got := make([][]uint64, k)
			for j := range sels {
				sels[j] = make([]byte, nbytes)
				rng.Read(sels[j])
				sels[j][nbytes-1] &= byte(1<<((shape.n-1)%8+1)) - 1
				want[j] = make([]uint64, arena.wpp)
				got[j] = make([]uint64, arena.wpp)
			}
			arena.answerAll(sels, want, &table)
			for _, nw := range workerFanOuts {
				eff := group.SetScanWorkers(nw)
				for j := range got {
					clearWords(got[j])
				}
				if eff > 1 {
					group.answerAllParallel(pool, arena, sels, got, eff)
				} else {
					arena.answerAll(sels, got, &table)
				}
				for j := range got {
					for w := range got[j] {
						if got[j][w] != want[j][w] {
							t.Fatalf("%dx%d k=%d nw=%d(eff %d): acc %d word %d differs",
								shape.n, shape.ps, k, nw, eff, j, w)
						}
					}
				}
			}
		}
	}
}

// TestXORPIRParallelMatchesPages drives the full store path with forced
// worker widths: answers must decode to the exact page contents whatever
// the fan-out, including duplicate targets and a batch covering every page.
func TestXORPIRParallelMatchesPages(t *testing.T) {
	for _, shape := range oddShapes {
		pages := makePages(shape.n, shape.ps, int64(31*shape.n+shape.ps))
		x, err := NewXORPIR(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]int, 0, shape.n+2)
		for p := 0; p < shape.n; p++ {
			batch = append(batch, p)
		}
		batch = append(batch, 0, shape.n-1) // duplicates share the scan
		for _, nw := range workerFanOuts {
			eff := x.SetScanWorkers(nw)
			if eff < 1 || eff > shape.n {
				t.Fatalf("%dx%d: SetScanWorkers(%d) = %d, outside [1,%d]",
					shape.n, shape.ps, nw, eff, shape.n)
			}
			got, err := ReadBatch(context.Background(), x, batch)
			if err != nil {
				t.Fatalf("%dx%d nw=%d: %v", shape.n, shape.ps, nw, err)
			}
			for i, p := range batch {
				if !bytes.Equal(got[i], pages[p]) {
					t.Fatalf("%dx%d nw=%d: answer %d (page %d) wrong", shape.n, shape.ps, nw, i, p)
				}
			}
			// k=1 through the same width.
			one, err := Read(x, shape.n/2)
			if err != nil || !bytes.Equal(one, pages[shape.n/2]) {
				t.Fatalf("%dx%d nw=%d: single read wrong: %v", shape.n, shape.ps, nw, err)
			}
		}
	}
}

// TestXORPIRParallelZeroAllocs pins the tentpole's allocation contract: the
// parallel steady state allocates nothing, anywhere in the runtime (the pin
// counts mallocs globally, so worker-goroutine allocations would fail it
// too), per-segment bucket tables included. Starting the helper goroutines
// must be free too: they run a method value bound once on the pooled task.
func TestXORPIRParallelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const n, ps, k = 256, 512, 8
	pages := makePages(n, ps, 47)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		t.Fatal(err)
	}
	x.rng = fakeRand{rng: rand.New(rand.NewSource(9))}
	x.SetScanWorkers(4)
	if bucketBits(k, n/4, x.arena.wpp) == 1 {
		t.Fatal("segments too short to engage the bucketed fold")
	}
	batch := []int{0, 9, 9, 55, 128, 255, 77, 31}[:k]
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
	read() // warm: scratch pool, task pool, partials
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("steady-state parallel ReadBatchInto allocates %.1f objects per batch; want 0", allocs)
	}
	for i, p := range batch {
		if !bytes.Equal(dst[i], pages[p]) {
			t.Fatalf("answer %d (page %d) wrong after alloc-free parallel reads", i, p)
		}
	}
}

// TestChunkedPassToleratesUnevenShares pins what the chunked claim is for: a
// pass is answered byte-identically however its chunks fall to the slots —
// one slot taking every chunk while the others find none (a helper that never
// woke), or a lone chunk here and the rest there. The slots are driven by
// hand, one after the other, so the split is the test's and not the Go
// runtime's.
func TestChunkedPassToleratesUnevenShares(t *testing.T) {
	const n, ps, k, nw = 4000, 1000, 8, 3
	pages := makePages(n, ps, 91)
	arena, err := newWordArena(src(pages, ps))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(92))
	sels, want, got := make([][]byte, k), make([][]uint64, k), make([][]uint64, k)
	for j := range sels {
		sels[j] = make([]byte, (n+7)/8)
		rng.Read(sels[j])
		want[j] = make([]uint64, arena.wpp)
		got[j] = make([]uint64, arena.wpp)
	}
	var table []uint64
	arena.answerAll(sels, want, &table)

	task := newArenaScratch().tasks.Get().(*arenaTask)
	task.prepare(arena, sels, got, nw)
	total := task.nchunks
	if total < 2*nw {
		t.Fatalf("%d chunks: too few for an uneven split", total)
	}
	if task.g == 1 {
		t.Fatal("shares too short to engage the bucketed fold")
	}
	// Slot 0 wins the first `first` chunks, slot 1 whatever is left, and
	// slot 2 arrives after the pass is over.
	for _, first := range []int32{0, 1, total / 2, total} {
		for j := range got {
			clearWords(got[j])
		}
		task.prepare(arena, sels, got, nw)
		task.nchunks = first
		task.runSegment(0)
		task.nchunks = total
		task.next.Store(first)
		task.runSegment(1)
		task.runSegment(2)
		task.combine()
		for j := range got {
			for w := range got[j] {
				if got[j][w] != want[j][w] {
					t.Fatalf("slot 0 took %d of %d chunks: acc %d word %d differs from the serial pass", first, total, j, w)
				}
			}
		}
	}
}

// TestScanObserverDeterministicCount pins the telemetry leakage invariant at
// the store level: a parallel batch produces exactly ScanWorkers segment
// observations (one arena pass answers both logical servers), a function of
// configuration alone — never of batch size, targets, or page contents.
func TestScanObserverDeterministicCount(t *testing.T) {
	const n, ps = 64, 64
	pages := makePages(n, ps, 51)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	x.SetScanObserver(func(time.Duration) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	for _, nw := range []int{2, 3, 4} {
		x.SetScanWorkers(nw)
		for _, batch := range [][]int{{0}, {1, 2, 3}, {5, 5, 5, 5, 5}} {
			mu.Lock()
			count = 0
			mu.Unlock()
			if _, err := ReadBatch(context.Background(), x, batch); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			got := count
			mu.Unlock()
			if got != nw {
				t.Fatalf("nw=%d batch=%v: %d segment observations, want %d", nw, batch, got, nw)
			}
		}
	}
	// The serial path emits none, and a removed observer goes quiet.
	x.SetScanWorkers(1)
	mu.Lock()
	count = 0
	mu.Unlock()
	if _, err := Read(x, 0); err != nil {
		t.Fatal(err)
	}
	x.SetScanWorkers(2)
	x.SetScanObserver(nil)
	if _, err := Read(x, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if count != 0 {
		t.Fatalf("serial or observer-less reads produced %d observations, want 0", count)
	}
	mu.Unlock()
}

// TestSetScanWorkersClamps pins the width-resolution rules: explicit widths
// clamp to the store's segmentable units, n <= 0 restores the size-aware
// default, and the default never exceeds the unit count.
func TestSetScanWorkersClamps(t *testing.T) {
	pages := makePages(3, 16, 7)
	x, err := NewXORPIR(src(pages, 16))
	if err != nil {
		t.Fatal(err)
	}
	if got := x.SetScanWorkers(64); got != 3 {
		t.Fatalf("SetScanWorkers(64) on a 3-page store = %d, want 3", got)
	}
	if got := x.ScanWorkers(); got != 3 {
		t.Fatalf("ScanWorkers after clamp = %d, want 3", got)
	}
	if got := x.SetScanWorkers(1); got != 1 {
		t.Fatalf("SetScanWorkers(1) = %d, want 1", got)
	}
	def := x.SetScanWorkers(0)
	if def < 1 || def > 3 {
		t.Fatalf("default width %d outside [1,3]", def)
	}
	// A tiny arena sizes its default to the serial kernel: 3 pages of 16
	// bytes is far below the per-worker floor.
	if def != 1 {
		t.Fatalf("default width %d for a 48-byte arena, want 1 (below segment floor)", def)
	}
}
