package pir

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"
)

// workerFanOuts are the group widths the equivalence tests force, chosen to
// exercise submitter-only (1), even splits, odd splits, and widths at or
// beyond the page count of the smaller shapes (capped there, as scanWidth
// caps them).
var workerFanOuts = []int{1, 2, 3, 4, 8}

// setWidth forces x's scan width to n — capped at its page count, as
// scanWidth caps it — whatever the size floor would give the file, and
// returns the width set.
func setWidth(x *XORPIR, n int) int {
	x.workers = max(1, min(n, x.numPages))
	return x.workers
}

// fold runs one nw-wide pass of s over sels into accs (zeroed), as a store
// call does with its own rows.
func (s *scan) fold(sels [][]byte, accs [][]uint64, nw int) {
	s.sels, s.accs = sels, accs
	s.pass(nw)
}

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
		s := newScan(arena)
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
				eff := min(nw, shape.n)
				for j := range got {
					clearWords(got[j])
				}
				if eff > 1 {
					s.fold(sels, got, eff)
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
			eff := setWidth(x, nw)
			if eff < 1 || eff > shape.n {
				t.Fatalf("%dx%d: width %d set as %d, outside [1,%d]",
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
// must be free too: they run a method value bound once on the listed scan.
// The second geometry is a plan quota, CI's Fd:52 at 4-KB pages, four wide:
// its 104 accumulator rows and three slots' partials together pass
// maxTableBytes, and the listed scan must keep them all the same.
func TestXORPIRParallelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, geo := range []struct{ n, ps, k int }{{256, 512, 8}, {1024, 4096, 52}} {
		pages := makePages(geo.n, geo.ps, 47)
		x, err := NewXORPIR(src(pages, geo.ps))
		if err != nil {
			t.Fatal(err)
		}
		x.rng = fakeRand{rng: rand.New(rand.NewSource(9))}
		setWidth(x, 4)
		if passBits(2*geo.k, geo.n, x.arena.wpp, 4) == 1 { // both servers' selectors
			t.Fatalf("%dx%d: segments too short to engage the bucketed fold", geo.n, geo.ps)
		}
		batch := make([]int, geo.k)
		for i := range batch {
			batch[i] = (i * 37) % geo.n
		}
		dst := make([][]byte, geo.k)
		for i := range dst {
			dst[i] = make([]byte, geo.ps)
		}
		ctx := context.Background()
		read := func() {
			if err := x.ReadBatchInto(ctx, batch, dst); err != nil {
				t.Fatal(err)
			}
		}
		read() // warm: the listed scan, its tables and partials
		if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
			t.Fatalf("%dx%d k=%d: steady-state parallel ReadBatchInto allocates %.1f objects per batch; want 0",
				geo.n, geo.ps, geo.k, allocs)
		}
		for i, p := range batch {
			if !bytes.Equal(dst[i], pages[p]) {
				t.Fatalf("%dx%d: answer %d (page %d) wrong after alloc-free parallel reads", geo.n, geo.ps, i, p)
			}
		}
	}
}

// TestListedScansKeepSlotBudget pins the store-wide bound on what listed
// scans keep beyond their rows: a scan whose tables and partials would take
// the store past maxListedScans·maxTableBytes is listed without them, one
// that fits keeps them, and taking scans off the list gives their bytes
// back to the budget.
func TestListedScansKeepSlotBudget(t *testing.T) {
	const n, ps = 64, 512
	x, err := NewXORPIR(src(makePages(n, ps, 3), ps))
	if err != nil {
		t.Fatal(err)
	}
	const budget = maxListedScans * maxTableBytes
	const tableWords = maxTableBytes / 8
	held := int64(budget - maxTableBytes) // as if other listed scans held this much
	x.slotMem.Store(held)

	over := newScan(x.arena)
	over.tables = [][]uint64{make([]uint64, tableWords), make([]uint64, tableWords)}
	x.putScan(over)
	if over.tables[0] != nil || over.tables[1] != nil {
		t.Fatal("a scan past the budget kept its tables")
	}
	fits := newScan(x.arena)
	fits.tables = [][]uint64{make([]uint64, tableWords/2)}
	fits.partbuf = make([]uint64, tableWords/4)
	x.putScan(fits)
	if fits.tables[0] == nil || fits.partbuf == nil {
		t.Fatal("a scan within the budget lost its slot buffers")
	}
	if got, want := x.slotMem.Load(), held+8*int64(len(fits.tables[0])+len(fits.partbuf)); got != want {
		t.Fatalf("listed slot bytes %d, want %d", got, want)
	}
	for range 2 {
		x.getScan()
	}
	if got := x.slotMem.Load(); got != held {
		t.Fatalf("after both scans left the list: slot bytes %d, want %d", got, held)
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

	s := newScan(arena)
	s.sels, s.accs = sels, got
	s.tables = make([][]uint64, nw)
	s.prepare(nw)
	total := s.nchunks
	if total < 2*nw {
		t.Fatalf("%d chunks: too few for an uneven split", total)
	}
	if s.g == 1 {
		t.Fatal("shares too short to engage the bucketed fold")
	}
	// Slot 0 wins the first `first` chunks, slot 1 whatever is left, and
	// slot 2 arrives after the pass is over.
	for _, first := range []int32{0, 1, total / 2, total} {
		for j := range got {
			clearWords(got[j])
		}
		s.prepare(nw)
		s.nchunks = first
		s.runSegment(0)
		s.nchunks = total
		s.next.Store(first)
		s.runSegment(1)
		s.runSegment(2)
		s.combine()
		for j := range got {
			for w := range got[j] {
				if got[j][w] != want[j][w] {
					t.Fatalf("slot 0 took %d of %d chunks: acc %d word %d differs from the serial pass", first, total, j, w)
				}
			}
		}
	}
}

// TestScanWidthRule pins the one rule a store's scan width comes from:
// GOMAXPROCS, shrunk so each worker folds at least minSegWords of arena,
// never more than the page count and never below 1.
func TestScanWidthRule(t *testing.T) {
	const floor = minSegWords
	for _, c := range []struct {
		name                string
		procs, words, pages int
		want                int
	}{
		{"empty arena", 8, 0, 0, 1},
		{"below the floor", 8, floor - 1, 100, 1},
		{"one floor", 8, floor, 100, 1},
		{"just under two floors", 8, 2*floor - 1, 100, 1},
		{"two floors", 8, 2 * floor, 100, 2},
		{"three floors", 8, 3 * floor, 100, 3},
		{"k floors, fewer procs", 2, 5 * floor, 100, 2},
		{"k floors, one proc", 1, 5 * floor, 100, 1},
		{"k floors, more procs", 16, 5 * floor, 100, 5},
		{"PI Fi at 1.0 on two cores", 2, 11321 * 512, 11321, 2},
		{"capped by the page count", 8, 8 * floor, 3, 3},
		{"one huge page", 8, 8 * floor, 1, 1},
		{"no procs", 0, 8 * floor, 100, 1},
	} {
		if got := scanWidth(c.procs, c.words, c.pages); got != c.want {
			t.Errorf("%s: scanWidth(procs=%d, words=%d, pages=%d) = %d, want %d",
				c.name, c.procs, c.words, c.pages, got, c.want)
		}
	}
	for procs := 0; procs <= 9; procs++ {
		for _, pages := range []int{0, 1, 2, 7, 1000} {
			for k := 0; k <= 9; k++ {
				got := scanWidth(procs, k*floor, pages)
				if got < 1 || (pages >= 1 && got > pages) || (procs >= 1 && got > procs) {
					t.Fatalf("scanWidth(%d, %d floors, %d pages) = %d", procs, k, pages, got)
				}
			}
		}
	}

	// NewXORPIR applies the rule once: a 48-byte arena is far below the
	// floor, so it scans serially at any core count.
	x, err := NewXORPIR(src(makePages(3, 16, 7), 16))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := x.ScanWorkers(), scanWidth(runtime.GOMAXPROCS(0), len(x.arena.words), x.numPages); got != want || got != 1 {
		t.Fatalf("ScanWorkers() = %d for a 48-byte arena, want %d (= 1)", got, want)
	}
}
