package pir

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pagefile"
)

// This file is the word-wide XOR kernel of the linear-scan PIR store. A PIR
// answer touches the whole file by construction (§2.2), so the server's scan
// is the query; the unit the kernel is costed in is the ROW-XOR — folding one
// page row (wpp words) into another row.
//
//   - wordArena holds a page file as one contiguous []uint64, so a pass
//     walks a single allocation in address order. For a build's
//     pagefile.File the arena is the File's own buffer, viewed in place
//     (view.go); any other reader is packed into a copy.
//   - xorWords, the row-XOR itself, is 32 bytes per instruction on an AVX2
//     host (xor_amd64.s, 128 bytes per loop iteration, chosen once at
//     package init from CPUID and XGETBV) and xorWordsGo's unrolled
//     eight-byte lanes everywhere else — off amd64, on a CPU without AVX2,
//     and under the purego build tag. Both bodies compute the same words.
//   - answerAll answers k selector vectors in ONE pass over the arena (the
//     matrix-batching idea of Chor et al.): every page row is read once,
//     whatever k is. What k changes is how many row-XORs the pass performs.
//
// Row-XOR count model. A pass over n pages with k uniform selectors, folded
// the direct way (test each selector's bit, XOR the row into that selector's
// accumulator), costs n·k/2 row-XORs: the arena is read once but each row is
// folded k/2 times, and past k≈2 the pass is compute-bound, not memory-bound.
// The bucketed fold (Four Russians / Pippenger) takes the selectors in groups
// of g: page p's g selector bits form a pattern in [0, 2^g), the row is XORed
// ONCE into bucket `pattern` of a 2^g-row table (pattern 0 selects nothing
// and is skipped), and after the range the table is folded into the g
// accumulators high bit to low — acc[j] ^= T[b]; T[b^bit] ^= T[b] for every b
// with bit j as its top bit — which costs 2·2^g row-XORs on top of the 2^g
// row-clears that zero the table. One group therefore costs
//
//	n·(1 − 2^−g) + 3·2^g        against        n·g/2
//
// row-XORs, and bucketBits picks the g ≤ 8 that minimises the sum over
// ⌈k/g⌉ groups, subject to the tables fitting a constant 1 MiB (cache-resident
// beside the streaming arena) and no table having more rows than the range it
// folds. How the groups hold their tables is the model's other half:
//
//   - A range too large to stay in cache — the 46 MB Fi, or one scan
//     worker's share of it — is walked ONCE, each row scattered into every
//     group's table, so all ⌈k/g⌉ tables are live together and their rows
//     together must fit the bound. At k = 16 over 11 326 4-KB pages that is
//     two groups of 6 and one of 4, 33 351 row-XORs instead of 90 608.
//   - A range whose rows fit the bound stays in cache once read, so the
//     groups take turns through ONE 2^g-row table: zero it, scatter the range
//     into it, fold it into the group's g accumulators, next group. The
//     row-XORs are the same; only the table shrinks to 2^g rows, so a table
//     pays on a small range where k groups' worth of tables would outgrow
//     it. That one table is held to a core's L1 data cache (l1TableBytes),
//     where a row-XOR into it is the cheapest: every row-XOR of the fold
//     but the scatter's reads stays in L1. A whole plan quota answered in
//     one pass is such a case: 52 selectors over an 81-page file of 4-KB
//     pages fold in groups of 3, 1 662 row-XORs through an 8-row table,
//     against the direct loop's 2 106.
//
// Over an 8-page range no table pays for itself and g = 1 — the direct loop —
// is what runs.
//
// Obliviousness is untouched. The pattern gather reads exactly the selector
// bits the direct loop reads, for every page of the range; every page is
// still visited once per pass; selectors are still drawn per query inside
// the store. The table is scratch owned by one slot of one pass (parallel.go)
// and never leaves the store, so the servers' views and the Theorem-1 traces
// are those of the direct loop.

// wordArena is a page file as uint64 lanes: page i occupies words
// [i*wpp, (i+1)*wpp). Pages whose byte size is not a multiple of 8 are
// zero-padded into their final word, which is XOR-neutral, so answers over
// padded rows decode back to exact page bytes.
type wordArena struct {
	words    []uint64
	wpp      int // words per page
	numPages int
	pageSize int
}

// newWordArena views the pages of src in place when viewWords allows it,
// and otherwise packs them into a fresh word slice.
func newWordArena(src pagefile.Reader) (*wordArena, error) {
	n, ps := src.NumPages(), src.PageSize()
	if n == 0 {
		return nil, fmt.Errorf("pir: empty file")
	}
	wpp := (ps + 7) / 8
	a := &wordArena{
		words:    viewWords(src),
		wpp:      wpp,
		numPages: n,
		pageSize: ps,
	}
	if a.words != nil {
		return a, nil
	}
	a.words = make([]uint64, n*wpp)
	for i := 0; i < n; i++ {
		p, err := src.Page(i)
		if err != nil {
			return nil, err
		}
		if len(p) > ps {
			return nil, fmt.Errorf("pir: page %d is %d bytes, page size %d", i, len(p), ps)
		}
		packWords(a.row(i), p)
	}
	return a, nil
}

// row returns page i's word lane.
func (a *wordArena) row(i int) []uint64 {
	return a.words[i*a.wpp : (i+1)*a.wpp]
}

// writePage decodes page i's words back into dst[:pageSize].
func (a *wordArena) writePage(i int, dst []byte) {
	unpackWords(dst[:a.pageSize], a.row(i))
}

// packWords encodes little-endian bytes into words, zero-padding the tail.
func packWords(dst []uint64, src []byte) {
	i, w := 0, 0
	for ; i+8 <= len(src); i, w = i+8, w+1 {
		dst[w] = binary.LittleEndian.Uint64(src[i:])
	}
	if i < len(src) {
		var tail [8]byte
		copy(tail[:], src[i:])
		dst[w] = binary.LittleEndian.Uint64(tail[:])
		w++
	}
	for ; w < len(dst); w++ {
		dst[w] = 0
	}
}

// unpackWords decodes words back to little-endian bytes, dropping the pad.
func unpackWords(dst []byte, src []uint64) {
	i, w := 0, 0
	for ; i+8 <= len(dst); i, w = i+8, w+1 {
		binary.LittleEndian.PutUint64(dst[i:], src[w])
	}
	if i < len(dst) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], src[w])
		copy(dst[i:], tail[:len(dst)-i])
	}
}

// xorWordsGo is the portable row-XOR: it folds src into acc lane-wise,
// eight words per iteration, and the fixed-size reslices give the compiler
// one bounds check per block instead of one per word (see
// BenchmarkXORAnswer for what that buys). It is xorWords wherever the AVX2
// body is not built or not supported, and the tail of the AVX2 body where it
// is. Both slices must have equal length.
func xorWordsGo(acc, src []uint64) {
	if len(acc) != len(src) {
		panic("pir: xorWords length mismatch")
	}
	i := 0
	for ; i+8 <= len(acc); i += 8 {
		a, s := acc[i:i+8:i+8], src[i:i+8:i+8]
		a[0] ^= s[0]
		a[1] ^= s[1]
		a[2] ^= s[2]
		a[3] ^= s[3]
		a[4] ^= s[4]
		a[5] ^= s[5]
		a[6] ^= s[6]
		a[7] ^= s[7]
	}
	for ; i < len(acc); i++ {
		acc[i] ^= src[i]
	}
}

// maxBucketBits caps a group at 8 selectors (256 buckets): past that the
// fold term 3·2^g overtakes any range this repo scans.
const maxBucketBits = 8

// maxTableBytes bounds the bucket tables of one pass — a constant, so a scan
// worker's scratch does not grow with the batch: at 4-KB pages one group of 8
// selectors, or 16 groups of 4. A range of at most this many bytes of rows
// counts as cache-resident, and its groups take turns through one table.
const maxTableBytes = 1 << 20

// l1TableBytes bounds the one table a cache-resident range's groups take
// turns through: a core's L1 data cache (32 KiB or more on current amd64 and
// arm64 cores), so the scatter and the fold write L1 lines only. At 4-KB
// pages that is 8 rows, a group of 3. Measured on a 2-core Xeon with 48 KiB
// of L1d, 52 selectors over 81 pages of 4 KB: 125–150 µs a pass in groups of
// 3, 139–149 µs in groups of 4 (a 64-KiB table), 192–221 µs by the direct
// loop.
const l1TableBytes = 32 << 10

// passCost2 is TWICE the row-XOR count the model charges a pass that takes
// k selectors over n pages in groups of g (doubled so n·k/2 stays integral):
// the direct loop at g = 1, else table clears, scatter and fold per group.
func passCost2(k, n, g int) int {
	if g == 1 {
		return n * k
	}
	groupCost2 := func(g int) int { return 2 * (n - n>>g + 3<<g) }
	cost := k / g * groupCost2(g)
	if rem := k % g; rem > 0 {
		cost += groupCost2(rem)
	}
	return cost
}

// bucketBits returns the fold the row-XOR count model picks for k selectors
// over an n-page range of wpp-word rows: the group size g, 1 meaning the
// direct loop, and whether the groups take turns through one table — the
// range's rows fit maxTableBytes, so it stays cache-resident across the
// groups' walks — or hold all their tables through one walk (file header).
func bucketBits(k, n, wpp int) (g int, oneTable bool) {
	oneTable = n*wpp*8 <= maxTableBytes
	return groupBits(k, n, wpp, oneTable), oneTable
}

// groupBits is the group size of a fold of k selectors over n pages of
// wpp-word rows, whose groups take turns through one 2^g-row table
// (oneTable, held to l1TableBytes) or hold tableRows(k, g) rows at once
// (held to maxTableBytes). A table is feasible only within its byte bound
// and with no more rows than the range it folds: a table with more rows
// than its range is more memory than the rows it folds, kept live with
// every listed scan, to save row-XORs on a range small enough for the
// direct loop to be cheap anyway.
func groupBits(k, n, wpp int, oneTable bool) int {
	best, bestCost := 1, passCost2(k, n, 1)
	for g := 2; g <= maxBucketBits && g <= k; g++ {
		rows, bound := tableRows(k, g), maxTableBytes
		if oneTable {
			rows, bound = 1<<g, l1TableBytes
		}
		if rows*wpp*8 > bound {
			break
		}
		if rows > n {
			continue
		}
		if cost := passCost2(k, n, g); cost < bestCost {
			best, bestCost = g, cost
		}
	}
	return best
}

// tableRows is the bucket-table size, in rows, of a pass that takes k
// selectors in groups of g: 2^g rows per full group plus 2^(k mod g) for the
// remainder group.
func tableRows(k, g int) int {
	rows := k / g << g
	if rem := k % g; rem > 0 {
		rows += 1 << rem
	}
	return rows
}

// answerAll answers k selector vectors in ONE pass over the arena: every
// page row is read once and folded as the row-XOR count model (file header)
// dictates. accs[j] must be len wpp and zeroed by the caller; table is the
// calling worker's bucket scratch, grown here on first use and reused after.
func (a *wordArena) answerAll(sels [][]byte, accs [][]uint64, table *[]uint64) {
	a.answerAllRange(sels, accs, 0, a.numPages, table)
}

// answerAllRange is answerAll restricted to pages [start, end): pick the fold
// for the range, then zero a table, scatter the range into it and fold it —
// all groups' tables in one walk, or one group at a time (foldGroups). A
// parallel pass (parallel.go) takes the same three steps itself, scattering
// every chunk a worker wins into that worker's one table. Page rows are
// contiguous and at least a cache line apart at any realistic page size, so
// concurrent ranges never share a written line.
func (a *wordArena) answerAllRange(sels [][]byte, accs [][]uint64, start, end int, table *[]uint64) {
	k := len(sels)
	g, oneTable := bucketBits(k, end-start, a.wpp)
	switch {
	case g == 1:
		a.foldDirect(sels, accs, start, end)
	case oneTable:
		a.foldGroups(sels, accs, g, start, end, table)
	default:
		tab := a.bucketTable(table, tableRows(k, g))
		a.scatterRange(sels, tab, g, start, end)
		foldTable(tab, accs, g, a.wpp)
	}
}

// foldGroups is the bucketed fold of a cache-resident range: the selectors'
// groups of g take turns through one table, each zeroing it, scattering
// pages [start, end) into it and folding it into the group's accumulators.
// The table is 2^g rows whatever k is; the range is walked once per group.
func (a *wordArena) foldGroups(sels [][]byte, accs [][]uint64, g, start, end int, table *[]uint64) {
	for lo := 0; lo < len(sels); lo += g {
		hi := min(lo+g, len(sels))
		tab := a.bucketTable(table, 1<<(hi-lo))
		a.scatterRange(sels[lo:hi], tab, g, start, end)
		foldBuckets(tab, accs[lo:hi], a.wpp)
	}
}

// bucketTable sizes *table for rows bucket rows (growing it on first use)
// and returns it zeroed.
func (a *wordArena) bucketTable(table *[]uint64, rows int) []uint64 {
	need := rows * a.wpp
	if cap(*table) < need {
		*table = make([]uint64, need)
	}
	tab := (*table)[:need]
	clearWords(tab)
	return tab
}

// scatterRange is the bucketed fold's pass over pages [start, end): one
// row-XOR per page per group, into the bucket the page's selector bits name.
// Group lo/g owns table rows [base, base+2^len(group)). A table may take any
// number of ranges before foldTable reduces it.
func (a *wordArena) scatterRange(sels [][]byte, tab []uint64, g, start, end int) {
	k, wpp := len(sels), a.wpp
	for p := start; p < end; p++ {
		byteIdx, shift := p>>3, uint(p&7)
		row := a.row(p)
		base := 0
		for lo := 0; lo < k; lo += g {
			group := sels[lo:min(lo+g, k)]
			pattern := 0
			for j, sel := range group {
				pattern |= int(sel[byteIdx]>>shift&1) << j
			}
			if pattern != 0 {
				b := (base + pattern) * wpp
				xorWords(tab[b:b+wpp], row)
			}
			base += 1 << len(group)
		}
	}
}

// foldTable reduces each group's buckets into its accumulators.
func foldTable(tab []uint64, accs [][]uint64, g, wpp int) {
	base := 0
	for lo := 0; lo < len(accs); lo += g {
		group := accs[lo:min(lo+g, len(accs))]
		rows := 1 << len(group)
		foldBuckets(tab[base*wpp:(base+rows)*wpp], group, wpp)
		base += rows
	}
}

// foldDirect is the g = 1 base case: each page row is XORed straight into
// the accumulator of every selector that wants it, n·k/2 row-XORs.
func (a *wordArena) foldDirect(sels [][]byte, accs [][]uint64, start, end int) {
	for p := start; p < end; p++ {
		byteIdx, bit := p>>3, byte(1)<<(p&7)
		var row []uint64
		for j, sel := range sels {
			if sel[byteIdx]&bit != 0 {
				if row == nil {
					row = a.row(p)
				}
				xorWords(accs[j], row)
			}
		}
	}
}

// foldBuckets reduces a 2^g-row bucket table into the g accumulators it
// stands for. Bucket b holds the XOR of the rows whose selection pattern was
// b, so acc[j] is owed every bucket with bit j set. Taking bits high to low,
// each bucket b whose TOP bit is j pays acc[j] and then merges into b without
// that bit, which owes the same lower accumulators — halving the live table
// each round, 2·2^g row-XORs in all. Bucket 0 is owed to nobody.
func foldBuckets(tab []uint64, accs [][]uint64, wpp int) {
	for j := len(accs) - 1; j >= 0; j-- {
		bit := 1 << j
		for b := bit; b < 2*bit; b++ {
			src := tab[b*wpp : (b+1)*wpp]
			xorWords(accs[j], src)
			if lower := b ^ bit; lower != 0 {
				xorWords(tab[lower*wpp:(lower+1)*wpp], src)
			}
		}
	}
}

// xorAnswerBytes is the byte-at-a-time reference kernel over [][]byte
// pages — the pre-arena implementation, kept as the correctness oracle for
// the equivalence tests and the baseline BenchmarkXORAnswer compares the
// word kernel against.
func xorAnswerBytes(pages [][]byte, pageSize int, sel []byte) []byte {
	out := make([]byte, pageSize)
	for i, page := range pages {
		if sel[i/8]&(1<<(i%8)) != 0 {
			for j := range page {
				out[j] ^= page[j]
			}
		}
	}
	return out
}
