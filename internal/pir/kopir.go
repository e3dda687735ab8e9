package pir

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pagefile"
)

// KOPIR is single-server computational PIR from the quadratic residuosity
// assumption (Kushilevitz & Ostrovsky, FOCS'97). The file's bits form an
// s×t matrix M. To fetch bit (r*, c*), the client sends t group elements
// y_1..y_t in Z_n^* with Jacobi symbol +1, where y_{c*} is a quadratic
// non-residue and every other y_c a residue. The server returns, per row r,
// z_r = Π_c y_c^{M[r,c]} · w_r² for random w_r. Then z_{r*} is a residue
// iff M[r*,c*] = 0, which the client (knowing the factorization) can test.
// The server sees only Jacobi-+1 elements, indistinguishable under QRA.
//
// This is the "particularly expensive" family of protocols §2.2 alludes to
// (it was behind the first PIR-based spatial method [11]); it is included
// as a genuinely cryptographic member of the PIR toolbox and is practical
// here only for small records — the demo and tests use it accordingly.
type KOPIR struct {
	pages    [][]byte
	numPages int
	pageSize int

	n    *big.Int // public modulus
	p, q *big.Int // client-held factorization
	bits int      // modulus size

	// Parallel scan machinery (see parallel.go). KOPIR is compute-bound
	// (modular products per bit), so its unit of segmentation is the
	// destination byte column: each worker owns a contiguous range of bit
	// rounds covering whole output bytes, rounds being mutually independent
	// server exchanges.
	*scanGroup

	scanCounters
}

// NewKOPIR builds the scheme over the pages of src with the given modulus
// size in bits (512 is fine for tests; real deployments would use 2048+).
// The full plaintext matrix stays in memory: every answer exponentiates
// over every bit.
func NewKOPIR(src pagefile.Reader, modulusBits int) (*KOPIR, error) {
	pages, err := materialize(src)
	if err != nil {
		return nil, err
	}
	pageSize := src.PageSize()
	if len(pages) == 0 {
		return nil, fmt.Errorf("pir: empty file")
	}
	if modulusBits < 32 {
		return nil, fmt.Errorf("pir: modulus %d bits too small", modulusBits)
	}
	p, err := rand.Prime(rand.Reader, modulusBits/2)
	if err != nil {
		return nil, err
	}
	q, err := rand.Prime(rand.Reader, modulusBits/2)
	if err != nil {
		return nil, err
	}
	for p.Cmp(q) == 0 {
		q, err = rand.Prime(rand.Reader, modulusBits/2)
		if err != nil {
			return nil, err
		}
	}
	k := &KOPIR{
		pages:    pages,
		numPages: len(pages),
		pageSize: pageSize,
		n:        new(big.Int).Mul(p, q),
		p:        p, q: q,
		bits: modulusBits,
		// Modular products dominate every bit round, so unlike the
		// memory-bound arena stores there is no size floor: any page with
		// at least one byte column per worker parallelizes profitably.
		scanGroup: newScanGroup(runtime.GOMAXPROCS(0), pageSize),
	}
	bindCleanup(k, k.scanGroup)
	return k, nil
}

// readPage retrieves one page bit by bit, one QR-PIR round per bit with no
// row sharing — the per-page reference the tests compare the batched rounds
// of ReadBatchInto against. Each bit query hides which page (row) and which
// bit position (column) is wanted.
func (k *KOPIR) readPage(page int) ([]byte, error) {
	if page < 0 || page >= k.numPages {
		return nil, fmt.Errorf("pir: page %d of %d", page, k.numPages)
	}
	out := make([]byte, k.pageSize)
	for bit := 0; bit < k.pageSize*8; bit++ {
		v, err := k.readBit(page, bit)
		if err != nil {
			return nil, err
		}
		if v {
			out[bit/8] |= 1 << (bit % 8)
		}
	}
	return out, nil
}

// readBit runs one QR-PIR round: rows = pages, columns = bit positions.
func (k *KOPIR) readBit(row, col int) (bool, error) {
	ys, err := k.sampleQuery(col)
	if err != nil {
		return false, err
	}
	z := k.serverAnswerRow(row, ys)
	return !k.isQR(z), nil
}

// sampleQuery builds one bit-round query vector: t Jacobi-+1 elements with
// a non-residue exactly at the wanted column.
func (k *KOPIR) sampleQuery(col int) ([]*big.Int, error) {
	t := k.pageSize * 8
	ys := make([]*big.Int, t)
	for c := 0; c < t; c++ {
		y, err := k.sampleJacobiOne(c == col)
		if err != nil {
			return nil, err
		}
		ys[c] = y
	}
	return ys, nil
}

// serverAnswerRow is the server-side computation for one row. The real
// protocol returns all rows (communication O(s·k)); since rows are
// independent and the query vector is fixed, computing only the row the
// test inspects is equivalent server work per row and keeps the demo fast.
// Server knowledge is unchanged: it processes the same query vector.
func (k *KOPIR) serverAnswerRow(row int, ys []*big.Int) *big.Int {
	z := big.NewInt(1)
	pageData := k.pages[row]
	for c, y := range ys {
		if c/8 < len(pageData) && pageData[c/8]&(1<<(c%8)) != 0 {
			z.Mul(z, y)
			z.Mod(z, k.n)
		}
	}
	// Randomize with w².
	w, _ := rand.Int(rand.Reader, k.n)
	w.Add(w, big.NewInt(2))
	z.Mul(z, new(big.Int).Exp(w, big.NewInt(2), k.n))
	z.Mod(z, k.n)
	return z
}

// sampleJacobiOne samples an element of Z_n^* with Jacobi symbol +1 that is
// a quadratic non-residue iff nonResidue is set.
func (k *KOPIR) sampleJacobiOne(nonResidue bool) (*big.Int, error) {
	for {
		y, err := rand.Int(rand.Reader, k.n)
		if err != nil {
			return nil, err
		}
		if y.Sign() == 0 || new(big.Int).GCD(nil, nil, y, k.n).Cmp(big.NewInt(1)) != 0 {
			continue
		}
		if big.Jacobi(y, k.n) != 1 {
			continue
		}
		if k.isQR(y) != nonResidue {
			return y, nil
		}
	}
}

// isQR tests quadratic residuosity mod n using the factorization (client
// secret): y is a QR mod n=pq iff it is a QR mod both p and q.
func (k *KOPIR) isQR(y *big.Int) bool {
	yp := new(big.Int).Mod(y, k.p)
	yq := new(big.Int).Mod(y, k.q)
	if yp.Sign() == 0 || yq.Sign() == 0 {
		return false
	}
	return big.Jacobi(yp, k.p) == 1 && big.Jacobi(yq, k.q) == 1
}

// serverAnswerRowBatch is the multi-query server computation for one row:
// the row's bits are walked ONCE, and every set bit multiplies the
// matching query element into each query's accumulator — the k-accumulator
// single-scan structure of the batched protocol, applied at row
// granularity. Each accumulator is finally randomized with its own w².
func (k *KOPIR) serverAnswerRowBatch(row int, yss [][]*big.Int) []*big.Int {
	zs := make([]*big.Int, len(yss))
	for q := range zs {
		zs[q] = big.NewInt(1)
	}
	pageData := k.pages[row]
	t := k.pageSize * 8
	for c := 0; c < t; c++ {
		if c/8 >= len(pageData) || pageData[c/8]&(1<<(c%8)) == 0 {
			continue
		}
		for q, ys := range yss {
			zs[q].Mul(zs[q], ys[c])
			zs[q].Mod(zs[q], k.n)
		}
	}
	for q := range zs {
		w, _ := rand.Int(rand.Reader, k.n)
		w.Add(w, big.NewInt(2))
		zs[q].Mul(zs[q], new(big.Int).Exp(w, big.NewInt(2), k.n))
		zs[q].Mod(zs[q], k.n)
	}
	return zs
}

// ReadBatchInto implements Store: the batch proceeds in bit-synchronized
// rounds (all queries fetch bit b together), and within a round the page
// matrix is walked once — queries targeting the same row share a single pass
// over that row's bits, each folding the shared data into its own
// accumulator. Every query still samples its own fresh Jacobi-+1 vector per
// round, so the server's view of a batch is exactly k independent queries.
// ctx is checked at bit-round boundaries (the read boundaries of this store:
// one round is one indivisible server exchange).
func (k *KOPIR) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	if err := checkBatch(k.numPages, pages, dst); err != nil {
		return err
	}
	if len(pages) == 0 {
		return nil
	}
	for i := range dst {
		clear(dst[i][:k.pageSize])
	}
	// Group query positions by target row, preserving request order, so
	// each distinct row is walked once per round however many queries want
	// it.
	rowOrder := make([]int, 0, len(pages))
	rowQueries := make(map[int][]int, len(pages))
	for i, p := range pages {
		if _, seen := rowQueries[p]; !seen {
			rowOrder = append(rowOrder, p)
		}
		rowQueries[p] = append(rowQueries[p], i)
	}
	if nw := k.ScanWorkers(); nw > 1 {
		if err := k.answerBitsParallel(ctx, dst, rowOrder, rowQueries, nw); err != nil {
			return err
		}
	} else if err := k.answerBitRange(ctx, dst, rowOrder, rowQueries, 0, k.pageSize*8, nil); err != nil {
		return err
	}
	// One database-equivalent pass per batch: in the real protocol the
	// server exponentiates over the full s×t matrix for every query set
	// (the row grouping above is a simulation shortcut, not visible work).
	k.recordScan(uint64(k.numPages), 1)
	return nil
}

// answerBitRange runs the bit rounds [startBit, endBit) of a batch — the
// unit of work one scan-worker segment owns. Rounds are independent server
// exchanges (each samples its own fresh query vectors), so any partition of
// the rounds yields the same decoded bits. ctx is checked at round
// boundaries, and a non-nil bail flag (set by a sibling segment that hit an
// error) stops the range early.
func (k *KOPIR) answerBitRange(ctx context.Context, dst [][]byte, rowOrder []int, rowQueries map[int][]int, startBit, endBit int, bail *atomic.Bool) error {
	yss := make([][]*big.Int, 0, 4)
	for bit := startBit; bit < endBit; bit++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if bail != nil && bail.Load() {
			return nil
		}
		for _, row := range rowOrder {
			idxs := rowQueries[row]
			yss = yss[:0]
			for range idxs {
				ys, err := k.sampleQuery(bit)
				if err != nil {
					return err
				}
				yss = append(yss, ys)
			}
			zs := k.serverAnswerRowBatch(row, yss)
			for j, i := range idxs {
				if !k.isQR(zs[j]) {
					dst[i][bit/8] |= 1 << (bit % 8)
				}
			}
		}
	}
	return nil
}

// kopirTask fans a batch's bit rounds across the worker group. Segments
// split the page's byte columns, so no two workers ever OR into the same
// destination byte.
type kopirTask struct {
	seg        segTask
	k          *KOPIR
	ctx        context.Context
	dst        [][]byte
	rowOrder   []int
	rowQueries map[int][]int
	chunk      int // byte columns per segment

	bail atomic.Bool
	mu   sync.Mutex
	err  error
}

func (t *kopirTask) runSegment(seg int) {
	startB := seg * t.chunk
	endB := startB + t.chunk
	if endB > t.k.pageSize {
		endB = t.k.pageSize
	}
	err := t.k.answerBitRange(t.ctx, t.dst, t.rowOrder, t.rowQueries, startB*8, endB*8, &t.bail)
	if err != nil {
		t.bail.Store(true)
		t.mu.Lock()
		if t.err == nil {
			t.err = err
		}
		t.mu.Unlock()
	}
}

// answerBitsParallel answers all bit rounds with nw workers, byte columns
// partitioned contiguously. KOPIR tasks are not pooled: per-round query
// sampling allocates big.Ints by the thousand, so a task header per batch
// is noise (the arena stores, where allocation is the budget, pool theirs).
func (k *KOPIR) answerBitsParallel(ctx context.Context, dst [][]byte, rowOrder []int, rowQueries map[int][]int, nw int) error {
	t := &kopirTask{
		k:          k,
		ctx:        ctx,
		dst:        dst,
		rowOrder:   rowOrder,
		rowQueries: rowQueries,
		chunk:      (k.pageSize + nw - 1) / nw,
	}
	t.seg.run = t.runSegment
	t.seg.nseg = int32(nw)
	k.scanGroup.exec(&t.seg)
	t.seg.deref()
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.err
}

// NumPages implements Store.
func (k *KOPIR) NumPages() int { return k.numPages }

// PageSize implements Store.
func (k *KOPIR) PageSize() int { return k.pageSize }
