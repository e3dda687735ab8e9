package pir

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pagefile"
)

// src wraps raw pages as the Reader the store constructors take.
func src(pages [][]byte, pageSize int) pagefile.Reader {
	return pagefile.SlicePages("F", pageSize, pages)
}

func makePages(n, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, size)
		rng.Read(pages[i])
	}
	return pages
}

func TestPlainStore(t *testing.T) {
	pages := makePages(5, 64, 1)
	s := NewPlain(src(pages, 64))
	if s.NumPages() != 5 || s.PageSize() != 64 {
		t.Fatalf("meta: %d pages size %d", s.NumPages(), s.PageSize())
	}
	got, err := Read(s, 3)
	if err != nil || !bytes.Equal(got, pages[3]) {
		t.Fatalf("Read(3) = %v, %v", got, err)
	}
	if _, err := Read(s, 5); err == nil {
		t.Error("out-of-range read accepted")
	}
	if _, err := Read(s, -1); err == nil {
		t.Error("negative read accepted")
	}
}

func TestSqrtORAMCorrectness(t *testing.T) {
	pages := makePages(30, 128, 2)
	o, err := NewSqrtORAM(src(pages, 128), 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	// Far more reads than the shelter size, forcing several reshuffles.
	for i := 0; i < 200; i++ {
		idx := rng.Intn(30)
		got, err := Read(o, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pages[idx]) {
			t.Fatalf("read %d of page %d: wrong content", i, idx)
		}
	}
}

func TestSqrtORAMRepeatedSamePage(t *testing.T) {
	pages := makePages(16, 32, 4)
	o, err := NewSqrtORAM(src(pages, 32), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, err := Read(o, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pages[7]) {
			t.Fatalf("repeat read %d wrong", i)
		}
	}
}

// mainTouchesPerEpoch extracts, per epoch (delimited by shelter size), the
// main-area positions touched.
func mainTouches(o *SqrtORAM) []int {
	var out []int
	for _, tch := range o.Log().Touches {
		if tch.Area == "main" {
			out = append(out, tch.Pos)
		}
	}
	return out
}

// TestSqrtORAMObliviousness verifies the structural obliviousness property:
// within one epoch, the main-area positions touched are all distinct
// (never-revisit), and the physical trace shape (shelter scan + one main
// touch per read) is identical for wildly different logical patterns.
func TestSqrtORAMObliviousness(t *testing.T) {
	const n, size = 25, 16
	pages := makePages(n, size, 5)

	runPattern := func(pattern []int, seed int64) ([]Touch, []int) {
		o, err := NewSqrtORAM(src(pages, size), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pattern {
			if _, err := Read(o, p); err != nil {
				t.Fatal(err)
			}
		}
		return o.Log().Touches, mainTouches(o)
	}

	k := isqrt(n) // reads within a single epoch
	same := make([]int, k)
	for i := range same {
		same[i] = 9
	}
	distinct := make([]int, k)
	for i := range distinct {
		distinct[i] = i
	}

	touchesSame, mainSame := runPattern(same, 11)
	touchesDistinct, mainDistinct := runPattern(distinct, 11)

	// Identical trace *shape*: same areas in the same order.
	if len(touchesSame) != len(touchesDistinct) {
		t.Fatalf("trace lengths differ: %d vs %d", len(touchesSame), len(touchesDistinct))
	}
	for i := range touchesSame {
		if touchesSame[i].Area != touchesDistinct[i].Area {
			t.Fatalf("trace %d area differs: %q vs %q", i, touchesSame[i].Area, touchesDistinct[i].Area)
		}
	}
	// Never-revisit: within the epoch all main positions are distinct, for
	// both patterns — so repetition is not observable.
	for name, m := range map[string][]int{"same": mainSame, "distinct": mainDistinct} {
		seen := map[int]bool{}
		for _, pos := range m {
			if seen[pos] {
				t.Fatalf("%s pattern revisited main slot %d", name, pos)
			}
			seen[pos] = true
		}
	}
}

func TestSqrtORAMTamperDetected(t *testing.T) {
	pages := makePages(9, 32, 6)
	o, err := NewSqrtORAM(src(pages, 32), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a server-held ciphertext; a subsequent read that touches it
	// (eventually a reshuffle touches all) must fail authentication.
	for i := range o.serverMain {
		o.serverMain[i][0] ^= 0xff
	}
	var sawErr bool
	for i := 0; i < 20 && !sawErr; i++ {
		if _, err := Read(o, i%9); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("tampered storage went undetected")
	}
}

func TestXORPIRCorrectnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		size := 1 + rng.Intn(100)
		pages := makePages(n, size, seed)
		x, err := NewXORPIR(src(pages, size))
		if err != nil {
			return false
		}
		idx := rng.Intn(n)
		got, err := Read(x, idx)
		return err == nil && bytes.Equal(got, pages[idx])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestXORPIRServerViewsDifferOnlyAtTarget(t *testing.T) {
	pages := makePages(32, 16, 9)
	x, err := NewXORPIR(src(pages, 16))
	if err != nil {
		t.Fatal(err)
	}
	for target := 0; target < 32; target += 5 {
		if _, err := Read(x, target); err != nil {
			t.Fatal(err)
		}
		selA, selB := x.LastQueries()
		diffBits := 0
		diffAt := -1
		for i := range selA {
			d := selA[i] ^ selB[i]
			for b := 0; b < 8; b++ {
				if d&(1<<b) != 0 {
					diffBits++
					diffAt = i*8 + b
				}
			}
		}
		if diffBits != 1 || diffAt != target {
			t.Fatalf("queries differ at %d bit(s), position %d; want exactly bit %d", diffBits, diffAt, target)
		}
	}
}

func TestXORPIRSingleServerViewIsUniform(t *testing.T) {
	// Each individual server's query vector is fresh uniform randomness:
	// across many reads of the SAME page, each selection bit should be set
	// about half the time.
	pages := makePages(64, 8, 10)
	x, err := NewXORPIR(src(pages, 8))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 400
	counts := make([]int, 64)
	for i := 0; i < trials; i++ {
		if _, err := Read(x, 13); err != nil {
			t.Fatal(err)
		}
		selA, _ := x.LastQueries()
		for b := 0; b < 64; b++ {
			if selA[b/8]&(1<<(b%8)) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		if c < trials/4 || c > trials*3/4 {
			t.Errorf("bit %d set %d/%d times; server view not uniform", b, c, trials)
		}
	}
}

func TestKOPIRCorrectness(t *testing.T) {
	// Small records: KO retrieves bit-by-bit and is costly by design.
	pages := makePages(6, 4, 11)
	k, err := NewKOPIR(src(pages, 4), 128)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 6; idx++ {
		got, err := k.readPage(idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pages[idx]) {
			t.Fatalf("page %d: got %x want %x", idx, got, pages[idx])
		}
	}
}

func TestKOPIRRejectsBadInputs(t *testing.T) {
	if _, err := NewKOPIR(src(nil, 4), 128); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := NewKOPIR(src(makePages(2, 4, 1), 4), 8); err == nil {
		t.Error("tiny modulus accepted")
	}
	k, err := NewKOPIR(src(makePages(2, 2, 1), 2), 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.readPage(2); err == nil {
		t.Error("out-of-range read accepted")
	}
}
