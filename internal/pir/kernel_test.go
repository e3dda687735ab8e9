package pir

import (
	"bytes"
	"math/rand"
	"testing"
)

// oddShapes are the page-file geometries most likely to break a word-wide
// kernel: page counts that are not a multiple of 8 (partial selector byte),
// page sizes that are not a multiple of 8 (partial trailing word), and the
// degenerate single-page file.
var oddShapes = []struct{ n, ps int }{
	{1, 1},
	{1, 8},
	{3, 5},
	{13, 13},
	{9, 8},
	{8, 24},
	{17, 100},
	{64, 31},
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for size := 1; size <= 40; size++ {
		src := make([]byte, size)
		rng.Read(src)
		words := make([]uint64, (size+7)/8)
		packWords(words, src)
		got := make([]byte, size)
		unpackWords(got, words)
		if !bytes.Equal(got, src) {
			t.Fatalf("size %d: roundtrip mismatch", size)
		}
	}
}

// TestWordKernelMatchesByteKernel checks the word-wide arena kernels —
// single-selector answerOne and multi-selector single-scan answerAll —
// against the byte-at-a-time reference implementation, across odd shapes.
func TestWordKernelMatchesByteKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range oddShapes {
		pages := makePages(shape.n, shape.ps, int64(shape.n*1000+shape.ps))
		arena, err := newWordArena(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		nbytes := (shape.n + 7) / 8
		const k = 5
		sels := make([][]byte, k)
		for j := range sels {
			sels[j] = make([]byte, nbytes)
			rng.Read(sels[j])
			if rem := shape.n % 8; rem != 0 {
				sels[j][nbytes-1] &= byte(1<<rem) - 1
			}
		}

		// answerOne, selector by selector.
		for j, sel := range sels {
			want := xorAnswerBytes(pages, shape.ps, sel)
			acc := make([]uint64, arena.wpp)
			arena.answerOne(sel, acc)
			got := make([]byte, shape.ps)
			unpackWords(got, acc)
			if !bytes.Equal(got, want) {
				t.Fatalf("%dx%d: answerOne selector %d mismatch", shape.n, shape.ps, j)
			}
		}

		// answerAll: all selectors in one scan.
		accs := make([][]uint64, k)
		for j := range accs {
			accs[j] = make([]uint64, arena.wpp)
		}
		var table []uint64
		arena.answerAll(sels, accs, &table)
		for j, sel := range sels {
			want := xorAnswerBytes(pages, shape.ps, sel)
			got := make([]byte, shape.ps)
			unpackWords(got, accs[j])
			if !bytes.Equal(got, want) {
				t.Fatalf("%dx%d: answerAll selector %d mismatch", shape.n, shape.ps, j)
			}
		}
	}
}

func TestWordArenaPageRoundTrip(t *testing.T) {
	for _, shape := range oddShapes {
		pages := makePages(shape.n, shape.ps, int64(shape.n+shape.ps))
		arena, err := newWordArena(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, shape.ps)
		for i := range pages {
			arena.writePage(i, buf)
			if !bytes.Equal(buf, pages[i]) {
				t.Fatalf("%dx%d: page %d corrupted by arena roundtrip", shape.n, shape.ps, i)
			}
		}
	}
}

// TestXORWordsMatchesGoLoop holds the row-XOR the kernel runs (the AVX2
// body where the host has it) to the portable loop: lengths on either side
// of the 8-word unroll and the 16-word vector block, and sub-slices at every
// word offset, so neither body may assume an aligned start or a whole block.
// Words outside the folded slice must come out untouched.
func TestXORWordsMatchesGoLoop(t *testing.T) {
	if !hasAVX2 {
		t.Log("no AVX2 body on this build or host: xorWords is the portable loop")
	}
	rng := rand.New(rand.NewSource(5))
	const guard = 4
	for _, n := range []int{0, 1, 7, 8, 15, 16, 17, 127, 128, 512, 513} {
		for _, off := range [][2]int{{0, 0}, {1, 0}, {0, 3}, {2, 1}, {3, 3}} {
			src := make([]uint64, n+2*guard)
			acc := make([]uint64, n+2*guard)
			for i := range src {
				src[i], acc[i] = rng.Uint64(), rng.Uint64()
			}
			want := append([]uint64(nil), acc...)
			a, s := acc[guard+off[0]:guard+off[0]+n], src[guard+off[1]:guard+off[1]+n]
			xorWords(a, s)
			xorWordsGo(want[guard+off[0]:guard+off[0]+n], s)
			for i := range acc {
				if acc[i] != want[i] {
					t.Fatalf("n=%d offsets %v: word %d of the buffer is %#x, the portable loop gives %#x", n, off, i-guard-off[0], acc[i], want[i])
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("xorWords accepted slices of different lengths")
		}
	}()
	xorWords(make([]uint64, 16), make([]uint64, 17))
}

// kernelCase is one geometry of the bucketed-kernel equivalence table, with
// the byte-oracle answers of a selector pool computed once and shared by
// every batch size drawn from it.
type kernelCase struct {
	pages [][]byte
	arena *wordArena
	sels  [][]byte   // pool: random vectors, with all-zero at 1 and all-one at 3
	want  [][]uint64 // oracle answer per pool selector, packed like an arena row
}

func newKernelCase(t testing.TB, n, ps, pool int, seed int64) *kernelCase {
	t.Helper()
	c := &kernelCase{pages: makePages(n, ps, seed)}
	var err error
	if c.arena, err = newWordArena(src(c.pages, ps)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	nbytes := (n + 7) / 8
	tail := byte(1<<((n-1)%8+1)) - 1
	for j := 0; j < pool; j++ {
		sel := make([]byte, nbytes)
		switch j {
		case 1: // selects nothing
		case 3:
			for i := range sel {
				sel[i] = 0xFF
			}
		default:
			rng.Read(sel)
		}
		sel[nbytes-1] &= tail
		c.sels = append(c.sels, sel)
	}
	c.want = c.oracle(c.sels, 0, n)
	return c
}

// oracle answers sels restricted to pages [start, end) with xorAnswerBytes.
func (c *kernelCase) oracle(sels [][]byte, start, end int) [][]uint64 {
	want := make([][]uint64, len(sels))
	for j, sel := range sels {
		masked := make([]byte, len(sel))
		for p := start; p < end; p++ {
			masked[p>>3] |= sel[p>>3] & (1 << (p & 7))
		}
		want[j] = make([]uint64, c.arena.wpp)
		packWords(want[j], xorAnswerBytes(c.pages, c.arena.pageSize, masked))
	}
	return want
}

func zeroedAccs(k, wpp int) [][]uint64 {
	accs := make([][]uint64, k)
	for j := range accs {
		accs[j] = make([]uint64, wpp)
	}
	return accs
}

func diffAccs(got, want [][]uint64) (acc, word int, differ bool) {
	for j := range got {
		for w := range got[j] {
			if got[j][w] != want[j][w] {
				return j, w, true
			}
		}
	}
	return 0, 0, false
}

// TestBucketedKernelMatchesByteOracle is the equivalence table of the
// bucketed fold: every batch size on either side of a group boundary, page
// sizes with and without a padded tail word, page counts around the selector
// byte and word boundaries, the all-zero and all-one selectors, sub-ranges
// whose ends are not multiples of 8, the serial kernel and the segmented one
// at even, odd and over-wide fan-outs — all byte-identical to xorAnswerBytes.
func TestBucketedKernelMatchesByteOracle(t *testing.T) {
	batchSizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 64}
	oddRange := map[int][2]int{7: {2, 6}, 63: {5, 59}, 64: {3, 61}, 65: {9, 63}, 1000: {333, 995}}
	bucketed := 0
	for _, ps := range []int{8, 1000, 1024, 4096, 4100} {
		for _, n := range []int{1, 7, 63, 64, 65, 1000} {
			c := newKernelCase(t, n, ps, 64, int64(n*10000+ps))
			wpp := c.arena.wpp
			s := newScan(c.arena)
			var table []uint64
			for _, k := range batchSizes {
				if passBits(k, n, wpp, 1) > 1 {
					bucketed++
				}
				sels, want := c.sels[:k], c.want[:k]
				got := zeroedAccs(k, wpp)
				c.arena.answerAll(sels, got, &table)
				if j, w, bad := diffAccs(got, want); bad {
					t.Fatalf("%dx%d k=%d serial: acc %d word %d differs from the byte oracle", n, ps, k, j, w)
				}
				for _, nw := range []int{2, 3, 8} {
					eff := min(nw, n)
					if eff < 2 {
						continue // a 1-page file has nothing to segment
					}
					got := zeroedAccs(k, wpp)
					s.fold(sels, got, eff)
					if j, w, bad := diffAccs(got, want); bad {
						t.Fatalf("%dx%d k=%d workers=%d: acc %d word %d differs from the byte oracle", n, ps, k, eff, j, w)
					}
				}
			}
			r, ok := oddRange[n]
			if !ok {
				continue
			}
			wantRange := c.oracle(c.sels[:17], r[0], r[1])
			for _, k := range []int{1, 5, 8, 9, 17} {
				got := zeroedAccs(k, wpp)
				c.arena.answerAllRange(c.sels[:k], got, r[0], r[1], &table)
				if j, w, bad := diffAccs(got, wantRange[:k]); bad {
					t.Fatalf("%dx%d k=%d pages [%d,%d): acc %d word %d differs from the byte oracle", n, ps, k, r[0], r[1], j, w)
				}
			}
		}
	}
	if bucketed == 0 {
		t.Fatal("no case of the table engaged the bucketed fold")
	}
}

// passBits is the group size a pass of width nw folds n pages with: the
// serial kernel's choice over the whole range, or a scan worker's over its
// share (parallel.go's prepare).
func passBits(k, n, wpp, nw int) int {
	if nw <= 1 {
		g, _ := bucketBits(k, n, wpp)
		return g
	}
	return groupBits(k, (n+nw-1)/nw, wpp, false)
}

// TestBucketBitsFollowsTheCountModel pins the fold the row-XOR count model
// picks at the shapes the benchmark runs, the constant table bound, and that
// no table has more rows than the range it folds.
func TestBucketBitsFollowsTheCountModel(t *testing.T) {
	for _, c := range []struct {
		k, n, wpp, want int
		oneTable        bool
	}{
		{1, 11321, 512, 1, false},  // one selector: nothing to share
		{8, 11321, 512, 8, false},  // one 256-bucket group, 1 MiB
		{8, 5661, 512, 8, false},   // its half, one of two scan workers
		{8, 8, 512, 1, true},       // a table costs more than an 8-page range
		{2, 11321, 512, 2, false},  // 0.75n + 12 against n
		{64, 11321, 512, 4, false}, // 16 groups of 16 buckets fill the 1 MiB
		{256, 11321, 512, 1, false},
		// PI's Fi:8 quota in one pass: both logical servers' 16 selectors,
		// one walk of the 46 MB file through 144 rows of tables held at once.
		{16, 11326, 512, 6, false},
		// A whole quota over a small file: the 81 rows stay in cache, so
		// 52 shares (the fleet's CI Fd quota on a replica) fold 3 at a time
		// through one 8-row table that fits L1, 1 662 row-XORs against the
		// direct loop's 2 106; the 208 rows of all groups' tables would
		// outgrow the range. Likewise AF's 22-page round, 44 selectors over
		// 88 pages.
		{52, 81, 512, 3, true},
		{44, 88, 512, 3, true},
		{8, 81, 512, 3, true}, // the table still pays on a small range
		{52, 81, 64, 4, true}, // 512-byte pages: a 16-row table fits L1 and wins
		{8, 81, 513, 2, true}, // a row past 4 KB: 8 rows outgrow L1
	} {
		g, oneTable := bucketBits(c.k, c.n, c.wpp)
		if g != c.want || oneTable != c.oneTable {
			t.Errorf("bucketBits(k=%d, n=%d, wpp=%d) = %d, %v; want %d, %v", c.k, c.n, c.wpp, g, oneTable, c.want, c.oneTable)
		}
	}
	for _, wpp := range []int{1, 125, 128, 512, 513} {
		for _, n := range []int{1, 8, 81, 256, 100000} {
			for k := 1; k <= 300; k++ {
				g, oneTable := bucketBits(k, n, wpp)
				if oneTable != (n*wpp*8 <= maxTableBytes) {
					t.Fatalf("k=%d n=%d wpp=%d: one table %v for %d bytes of rows", k, n, wpp, oneTable, n*wpp*8)
				}
				if g == 1 {
					continue
				}
				rows, bound := tableRows(k, g), maxTableBytes
				if oneTable {
					rows, bound = 1<<g, l1TableBytes
				}
				if rows*wpp*8 > bound {
					t.Fatalf("k=%d wpp=%d: g=%d needs %d table bytes, bound %d", k, wpp, g, rows*wpp*8, bound)
				}
				if rows > n {
					t.Fatalf("k=%d n=%d: g=%d needs %d table rows for %d page rows", k, n, g, rows, n)
				}
			}
		}
	}
}

// TestFoldGroupsMatchesByteOracle holds the group-by-group fold to the byte
// oracle at every group size, forced rather than chosen by the model: ranges
// shorter than the table (n < 2^g), batch sizes that leave a short last
// group, and up to 64 selectors, over whole files and sub-ranges.
func TestFoldGroupsMatchesByteOracle(t *testing.T) {
	for _, shape := range []struct{ n, ps int }{{5, 24}, {13, 13}, {81, 4096}, {88, 4100}} {
		c := newKernelCase(t, shape.n, shape.ps, 64, int64(shape.n*7+shape.ps))
		ranges := map[[2]int][][]uint64{{0, shape.n}: c.want, {1, shape.n - 1}: c.oracle(c.sels, 1, shape.n-1)}
		var table []uint64
		for g := 2; g <= maxBucketBits; g++ {
			for _, k := range []int{1, g - 1, g, g + 1, 2*g + 1, 44, 52, 63, 64} {
				if k < 1 {
					continue
				}
				for r, want := range ranges {
					got := zeroedAccs(k, c.arena.wpp)
					c.arena.foldGroups(c.sels[:k], got, g, r[0], r[1], &table)
					if j, w, bad := diffAccs(got, want[:k]); bad {
						t.Fatalf("%dx%d g=%d k=%d pages [%d,%d): acc %d word %d differs from the byte oracle", shape.n, shape.ps, g, k, r[0], r[1], j, w)
					}
				}
			}
		}
	}
}

// FuzzAnswerAll checks the kernel against the byte oracle on random
// geometry, selectors, sub-range and fan-out, and the group-by-group fold
// at a group size the seed forces, whether or not the model would pick it.
func FuzzAnswerAll(f *testing.F) {
	f.Add(int64(1), uint16(65), uint16(24), uint8(8), uint8(2), uint16(3), uint16(60))
	f.Add(int64(2), uint16(300), uint16(13), uint8(17), uint8(3), uint16(0), uint16(300))
	f.Add(int64(3), uint16(1), uint16(1), uint8(1), uint8(8), uint16(0), uint16(1))
	f.Add(int64(4), uint16(200), uint16(600), uint8(40), uint8(1), uint16(199), uint16(7))
	f.Add(int64(5), uint16(81), uint16(512), uint8(52), uint8(1), uint16(0), uint16(81))
	f.Add(int64(6), uint16(9), uint16(8), uint8(63), uint8(1), uint16(2), uint16(9))
	f.Fuzz(func(t *testing.T, seed int64, n16, ps16 uint16, k8, nw8 uint8, a16, b16 uint16) {
		n, ps, k := int(n16)%300+1, int(ps16)%600+1, int(k8)%64+1
		c := newKernelCase(t, n, ps, k, seed)
		var table []uint64

		start, end := int(a16)%(n+1), int(b16)%(n+1)
		if start > end {
			start, end = end, start
		}
		got := zeroedAccs(k, c.arena.wpp)
		c.arena.answerAllRange(c.sels, got, start, end, &table)
		want := c.oracle(c.sels, start, end)
		if j, w, bad := diffAccs(got, want); bad {
			t.Fatalf("%dx%d k=%d pages [%d,%d): acc %d word %d differs from the byte oracle", n, ps, k, start, end, j, w)
		}
		g := int(uint64(seed)%(maxBucketBits-1)) + 2
		got = zeroedAccs(k, c.arena.wpp)
		c.arena.foldGroups(c.sels, got, g, start, end, &table)
		if j, w, bad := diffAccs(got, want); bad {
			t.Fatalf("%dx%d k=%d g=%d pages [%d,%d): group-by-group acc %d word %d differs from the byte oracle", n, ps, k, g, start, end, j, w)
		}

		if nw := min(int(nw8)%8+1, n); nw > 1 {
			got := zeroedAccs(k, c.arena.wpp)
			newScan(c.arena).fold(c.sels, got, nw)
			if j, w, bad := diffAccs(got, c.want); bad {
				t.Fatalf("%dx%d k=%d workers=%d: acc %d word %d differs from the byte oracle", n, ps, k, nw, j, w)
			}
		}
	})
}
