package pir

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"runtime"

	"repro/internal/pagefile"
)

// XORPIR is the two-server information-theoretic PIR of Chor, Goldreich,
// Kushilevitz and Sudan [4]: the client sends a uniformly random subset S of
// page indices to server A and S Δ {target} to server B; each server
// returns the XOR of its selected pages; XORing the two replies yields the
// target page. As long as the servers do not collude, each sees a uniformly
// random subset, revealing nothing about the target — not even
// computationally bounded adversaries learn anything.
//
// Both logical servers answer from the same contiguous word arena (see
// kernel.go — the file is immutable, so one arena serves both, and for a
// build's pagefile.File it is the File's own buffer), and a k-page
// ReadBatchInto reads that arena ONCE: one pass answers server A's k
// selectors and server B's k selectors together, 2k accumulators side by
// side, rather than k independent scans. Each logical server's answer is
// the fold of its own full selector vector over every page: sharing the
// pass changes which loop folds a row, not which rows a server's answer
// contains. What a pass costs is set by kernel.go's
// row-XOR count model: the n page rows are read once whatever the selector
// count s is, and folded n·s/2 times by the direct loop or — once n is long
// enough for a table to pay, which bucketBits decides from s and n alone —
// about n·(1−2^−g) + 3·2^g times per group of g ≤ 8 selectors by the
// bucketed fold: a one-page read is one s = 2 pass, and a k = 8 round one
// s = 16 pass in groups of 6. Each batched query still samples its own
// fresh selector vector, so the servers' views stay uniform and mutually
// independent whether pages arrive one at a time or batched; the fold reads
// the same selector bits for the same pages either way, and its bucket
// table is scan-worker scratch that never leaves the store.
type XORPIR struct {
	arena    *wordArena
	numPages int
	pageSize int
	rng      io.Reader        // draws the selector shares; tests wrap it to read the servers' views
	scratch  chan *xorScratch // free list of batch scratch, sized for this store

	// Parallel scan machinery (see parallel.go): a pass fans out across
	// workers goroutines when that is above 1.
	workers      int           // scan width, fixed at construction (scanWidth)
	arenaScratch *arenaScratch // pooled scan tasks and bucket tables

	scanCounters
}

// xorScratch is the per-batch working set: selector vectors and word
// accumulators, backed by two flat allocations so a steady-state batch
// reuses everything. A k-page ReadBatchInto holds 2k of each, server A's
// rows first and server B's after them, so one pass takes all 2k; a replica
// answering k shares holds no selectors (its selectors are the client's)
// and, where it can, no accumulators either: it folds into the answer
// buffers in place (viewAccs). Scratch lives on a free list, like the
// bucket tables (tableList) and for the same reason: the accumulators are a
// page per selector, and a sync.Pool would reallocate them after every
// second collection, where the list keeps as many as batches have run at
// once.
type xorScratch struct {
	selbuf []byte
	sels   [][]byte
	accbuf []uint64
	accs   [][]uint64
}

// NewXORPIR builds the arena the two logical servers answer from (the answer
// to any query XORs an arbitrary page subset, so the full plaintext is held
// in memory). It reads every page of src once. A *pagefile.File whose page
// size is a multiple of 8 is viewed in place, so the store adds no second
// copy of it; any other reader is copied into the arena. The scan width is
// worked out here, from GOMAXPROCS and the arena's size (see scanWidth), and
// stays fixed for the store's life.
func NewXORPIR(src pagefile.Reader) (*XORPIR, error) {
	arena, err := newWordArena(src)
	if err != nil {
		return nil, err
	}
	return &XORPIR{
		arena:        arena,
		numPages:     arena.numPages,
		pageSize:     arena.pageSize,
		rng:          rand.Reader,
		scratch:      make(chan *xorScratch, tableListCap),
		workers:      scanWidth(runtime.GOMAXPROCS(0), len(arena.words), arena.numPages),
		arenaScratch: newArenaScratch(),
	}, nil
}

// selBytes is the selector vector size: one bit per page.
func (x *XORPIR) selBytes() int { return (x.numPages + 7) / 8 }

// getScratch rents a scratch with nsel selector rows and nacc zeroed
// accumulator rows.
func (x *XORPIR) getScratch(nsel, nacc int) *xorScratch {
	var sc *xorScratch
	select {
	case sc = <-x.scratch:
	default:
		sc = &xorScratch{}
	}
	sc.size(nsel, nacc, x.selBytes(), x.arena.wpp)
	return sc
}

// size cuts sc into nsel selector rows of nbytes and nacc zeroed
// accumulator rows of wpp words, growing its buffers when too small.
func (sc *xorScratch) size(nsel, nacc, nbytes, wpp int) {
	if cap(sc.selbuf) < nsel*nbytes {
		sc.selbuf = make([]byte, nsel*nbytes)
	}
	sc.selbuf = sc.selbuf[:nsel*nbytes]
	if cap(sc.accbuf) < nacc*wpp {
		sc.accbuf = make([]uint64, nacc*wpp)
	}
	sc.accbuf = sc.accbuf[:nacc*wpp]
	clearWords(sc.accbuf)
	sc.sels = sliceRows(sc.sels[:0], sc.selbuf, nbytes)
	sc.accs = sliceWordRows(sc.accs[:0], sc.accbuf, wpp)
}

// viewAccs points sc's accumulator rows at the answer buffers themselves,
// zeroed, when every one can be read as wpp words in place (wordsInPlace),
// so the pass folds straight into them; false leaves sc without rows.
func (sc *xorScratch) viewAccs(dst [][]byte, wpp int) bool {
	sc.accs = sc.accs[:0]
	for _, d := range dst {
		w := wordsInPlace(d, wpp)
		if w == nil {
			sc.accs = sc.accs[:0]
			return false
		}
		clearWords(w)
		sc.accs = append(sc.accs, w)
	}
	return true
}

// putScratch returns a batch's scratch to the free list, unless a batch far
// beyond a plan quota's grew it past maxTableBytes: that one goes to the
// collector rather than stay resident for good.
func (x *XORPIR) putScratch(sc *xorScratch) {
	if cap(sc.selbuf)+8*cap(sc.accbuf) > maxTableBytes {
		return
	}
	select {
	case x.scratch <- sc:
	default:
	}
}

// sliceRows cuts flat into rows of n bytes, reusing dst's backing array.
func sliceRows(dst [][]byte, flat []byte, n int) [][]byte {
	for off := 0; off < len(flat); off += n {
		dst = append(dst, flat[off:off+n])
	}
	return dst
}

// sliceWordRows cuts flat into rows of n words, reusing dst's backing array.
func sliceWordRows(dst [][]uint64, flat []uint64, n int) [][]uint64 {
	for off := 0; off < len(flat); off += n {
		dst = append(dst, flat[off:off+n])
	}
	return dst
}

// ReadBatchInto implements Store: every batched read samples its own fresh
// query vectors against the immutable arena (so the servers' views stay
// independent and uniform), and the whole batch — both logical servers'
// selectors, 2k accumulators — is answered by one pass over the arena. With
// pooled scratch inside the store, a steady-state batch allocates nothing
// beyond what the cryptographic randomness source needs.
func (x *XORPIR) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	if err := checkBatch(x.numPages, pages, dst); err != nil {
		return err
	}
	if len(pages) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	k := len(pages)
	sc := x.getScratch(2*k, 2*k)
	defer x.putScratch(sc)
	selsA, selsB := sc.sels[:k], sc.sels[k:]
	if err := SplitShares(x.rng, x.numPages, pages, selsA, selsB); err != nil {
		return err
	}

	// One pass answers both servers' selectors for the whole batch. At a
	// scan width above 1 it fans out across workers — same pages touched,
	// answers byte-identical to the serial kernel (XOR is associative).
	x.pass(sc.sels, sc.accs)
	// One full-file pass answered the whole batch, whatever its size — the
	// quantity the amortization ratio tracks.
	x.recordScan(uint64(x.numPages), 1)
	for j := range pages {
		acc := sc.accs[j]
		xorWords(acc, sc.accs[k+j])
		unpackWords(dst[j][:x.pageSize], acc)
	}
	return nil
}

// SplitShares draws the two-server XOR PIR selector shares of a page batch
// into caller-owned buffers, one pair per page, each exactly (numPages+7)/8
// bytes — one bit per page of the file. selsA[i] is uniform from rng with
// the bits past the last page zeroed, and selsB[i] is selsA[i] with the bit
// of pages[i] flipped. Each share alone is
// uniform and independent of the page; their XOR selects exactly pages[i].
// Every query draws its own share, so the shares of one batch are mutually
// independent. A page outside [0, numPages) fails the batch before any
// share is drawn.
func SplitShares(rng io.Reader, numPages int, pages []int, selsA, selsB [][]byte) error {
	for _, p := range pages {
		if p < 0 || p >= numPages {
			return fmt.Errorf("pir: page %d of %d", p, numPages)
		}
	}
	nb := (numPages + 7) / 8
	mask := byte(0xFF)
	if rem := numPages % 8; rem != 0 {
		mask = byte(1<<rem) - 1
	}
	for i, p := range pages {
		a, b := selsA[i], selsB[i]
		if _, err := io.ReadFull(rng, a); err != nil {
			return fmt.Errorf("pir: drawing selector shares: %w", err)
		}
		a[nb-1] &= mask
		copy(b, a)
		b[p/8] ^= 1 << (p % 8)
	}
	return nil
}

// pass answers sels in one pass over the arena (accs zeroed), fanned
// out when the store's scan width is above 1.
func (x *XORPIR) pass(sels [][]byte, accs [][]uint64) {
	if x.workers > 1 {
		x.arenaScratch.answerAllParallel(x.arena, sels, accs, x.workers)
		return
	}
	table := x.arenaScratch.tables.borrow()
	x.arena.answerAll(sels, accs, &table)
	x.arenaScratch.tables.giveBack(table)
}

func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// SelectorBytes implements ShareAnswerer: one bit per page, whole bytes.
func (x *XORPIR) SelectorBytes() int { return x.selBytes() }

// AnswerShares implements ShareAnswerer: one scan with k accumulators
// answers all k client-supplied selectors. This is the replica half of
// fleet mode — the store never sees the companion share, never
// reconstructs a page, and folds half the selectors ReadBatchInto does
// (which answers both logical servers' in its one pass). Bits beyond
// numPages select nothing: the kernel walks only the numPages real rows.
func (x *XORPIR) AnswerShares(ctx context.Context, sels [][]byte, dst [][]byte) error {
	if len(dst) != len(sels) {
		return fmt.Errorf("pir: %d buffers for %d selectors", len(dst), len(sels))
	}
	nbytes := x.selBytes()
	for i, sel := range sels {
		if len(sel) != nbytes {
			return fmt.Errorf("pir: selector %d is %d bytes, want %d", i, len(sel), nbytes)
		}
	}
	if len(sels) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// The answers accumulate in dst itself where the buffers allow it, so a
	// replica holds a round's pages once; otherwise in scratch rows that
	// are unpacked into dst after the pass.
	sc := x.getScratch(0, 0)
	defer x.putScratch(sc)
	inPlace := sc.viewAccs(dst, x.arena.wpp)
	if !inPlace {
		sc.size(0, len(sels), x.selBytes(), x.arena.wpp)
	}
	x.pass(sels, sc.accs)
	// One full-file pass, whatever the batch size.
	x.recordScan(uint64(x.numPages), 1)
	if inPlace {
		clear(sc.accs) // the listed scratch must not keep the caller's buffers
		return nil
	}
	for j := range sels {
		unpackWords(dst[j][:x.pageSize], sc.accs[j])
	}
	return nil
}

// ScanWorkers reports the store's scan width: how many goroutines fold one
// pass (1 = the serial kernel).
func (x *XORPIR) ScanWorkers() int { return x.workers }

// NumPages implements Store.
func (x *XORPIR) NumPages() int { return x.numPages }

// PageSize implements Store.
func (x *XORPIR) PageSize() int { return x.pageSize }
