package pir

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

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
// tables are the store call's own scratch and never leave the store.
type XORPIR struct {
	arena    *wordArena
	numPages int
	pageSize int
	rng      io.Reader    // draws the selector shares; tests wrap it to read the servers' views
	workers  int          // scan width, fixed at construction (scanWidth); above 1 a pass fans out (parallel.go)
	scans    chan *scan   // free list of store-call working sets
	slotMem  atomic.Int64 // bytes of bucket tables and partials the listed scans hold (putScan)

	scanCounters
}

// scan is the working set of one store call, and nothing else holds any
// of it while the call runs: the batch's selector and accumulator rows, a
// bucket table per slot of the pass, and the parallel pass's chunking state
// and partials. A k-page ReadBatchInto holds 2k selector and accumulator
// rows, server A's first and server B's after them, so one pass takes all
// 2k; a replica answering k shares folds the client's selectors and, where
// it can, folds into the answer buffers in place (viewAccs). A call takes a
// scan off its store's list and puts it back when it returns. The list is a
// channel rather than a sync.Pool: a Pool drops what it holds every second
// collection, and the rows and tables, a page or more each, would be
// reallocated; the list keeps as many scans as calls have run at once, and
// putScan bounds what they hold.
type scan struct {
	arena  *wordArena
	selbuf []byte
	sels   [][]byte // the pass's selectors: rows of selbuf, or a replica's client-supplied shares
	accbuf []uint64
	accs   [][]uint64 // the pass's accumulators: rows of accbuf, or the answer buffers in place
	tables [][]uint64 // one bucket table per slot, grown by the kernel on first use

	// The parallel pass (parallel.go). help is runHelper bound once, at
	// newScan, because `go s.help()` starts a goroutine without allocating
	// where `go s.runHelper()` would allocate a closure per helper.
	nw, g, step int // width, group size and pages per chunk of the pass
	nchunks     int32
	next        atomic.Int32 // next unclaimed chunk
	slot        atomic.Int32 // last slot a helper took
	wg          sync.WaitGroup
	help        func()
	partbuf     []uint64
	parts       [][]uint64 // the helpers' partial accumulators, k rows per slot

	listedMem int64 // slot bytes s added to its store's slotMem when it was listed
}

// maxListedScans bounds the scans a store keeps; it only has to exceed the
// store calls that overlap on one store, and an unused slot costs a
// pointer. It bounds their slot buffers too: the listed scans' bucket
// tables and partials together stay within maxListedScans·maxTableBytes,
// as many bytes as that many tables of the largest size.
const maxListedScans = 64

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
		arena:    arena,
		numPages: arena.numPages,
		pageSize: arena.pageSize,
		rng:      rand.Reader,
		workers:  scanWidth(runtime.GOMAXPROCS(0), len(arena.words), arena.numPages),
		scans:    make(chan *scan, maxListedScans),
	}, nil
}

// newScan makes an empty scan over a, its helper body bound once.
func newScan(a *wordArena) *scan {
	s := &scan{arena: a}
	s.help = s.runHelper
	return s
}

// selBytes is the selector vector size: one bit per page.
func (x *XORPIR) selBytes() int { return (x.numPages + 7) / 8 }

// getScan takes a scan off the list, or a new one.
func (x *XORPIR) getScan() *scan {
	select {
	case s := <-x.scans:
		x.slotMem.Add(-s.listedMem)
		return s
	default:
		return newScan(x.arena)
	}
}

// putScan lists s again, holding no view of the caller's buffers, within
// two bounds on what stays resident:
//   - a batch far beyond a plan quota's that grew s's selector and
//     accumulator rows past maxTableBytes sends s to the collector;
//   - s keeps its slot buffers (bucket tables, each held to maxTableBytes by
//     groupBits, and the helpers' partials) only while the listed scans'
//     slot buffers fit maxListedScans·maxTableBytes; past that, s is listed
//     without them.
func (x *XORPIR) putScan(s *scan) {
	clear(s.sels)
	clear(s.accs)
	if cap(s.selbuf)+8*cap(s.accbuf) > maxTableBytes {
		return
	}
	s.listedMem = 8 * int64(cap(s.partbuf))
	for _, t := range s.tables {
		s.listedMem += 8 * int64(cap(t))
	}
	if x.slotMem.Add(s.listedMem) > maxListedScans*maxTableBytes {
		x.slotMem.Add(-s.listedMem) // over: the next pass grows them again
		clear(s.tables)
		clear(s.parts)
		s.partbuf, s.listedMem = nil, 0
	}
	select {
	case x.scans <- s:
	default:
		x.slotMem.Add(-s.listedMem)
	}
}

// size cuts s into nsel selector rows and nacc zeroed accumulator rows,
// growing its buffers when too small.
func (s *scan) size(nsel, nacc int) {
	nbytes, wpp := (s.arena.numPages+7)/8, s.arena.wpp
	if cap(s.selbuf) < nsel*nbytes {
		s.selbuf = make([]byte, nsel*nbytes)
	}
	s.selbuf = s.selbuf[:nsel*nbytes]
	if cap(s.accbuf) < nacc*wpp {
		s.accbuf = make([]uint64, nacc*wpp)
	}
	s.accbuf = s.accbuf[:nacc*wpp]
	clearWords(s.accbuf)
	s.sels = sliceRows(s.sels[:0], s.selbuf, nbytes)
	s.accs = sliceWordRows(s.accs[:0], s.accbuf, wpp)
}

// viewAccs points s's accumulator rows at the answer buffers themselves,
// zeroed, when every one can be read as words in place (wordsInPlace), so
// the pass folds straight into them; false leaves s without rows.
func (s *scan) viewAccs(dst [][]byte) bool {
	s.accs = s.accs[:0]
	for _, d := range dst {
		w := wordsInPlace(d, s.arena.wpp)
		if w == nil {
			s.accs = s.accs[:0]
			return false
		}
		clearWords(w)
		s.accs = append(s.accs, w)
	}
	return true
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
// listed scans inside the store, a steady-state batch allocates nothing
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
	s := x.getScan()
	defer x.putScan(s)
	s.size(2*k, 2*k)
	if err := SplitShares(x.rng, x.numPages, pages, s.sels[:k], s.sels[k:]); err != nil {
		return err
	}

	// One pass answers both servers' selectors for the whole batch. At a
	// scan width above 1 it fans out across workers — same pages touched,
	// answers byte-identical to the serial kernel (XOR is associative).
	s.pass(x.workers)
	// One full-file pass answered the whole batch, whatever its size — the
	// quantity the amortization ratio tracks.
	x.recordScan(uint64(x.numPages), 1)
	for j := range pages {
		acc := s.accs[j]
		xorWords(acc, s.accs[k+j])
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
	s := x.getScan()
	defer x.putScan(s)
	inPlace := s.viewAccs(dst)
	if !inPlace {
		s.size(0, len(sels))
	}
	s.sels = append(s.sels[:0], sels...)
	s.pass(x.workers)
	// One full-file pass, whatever the batch size.
	x.recordScan(uint64(x.numPages), 1)
	if !inPlace {
		for j := range sels {
			unpackWords(dst[j][:x.pageSize], s.accs[j])
		}
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
