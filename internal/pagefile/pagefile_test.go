package pagefile

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFileBasics(t *testing.T) {
	f := NewFile("Fd", 64)
	if f.Name() != "Fd" || f.PageSize() != 64 || f.NumPages() != 0 || f.Size() != 0 {
		t.Fatalf("fresh file meta wrong: %+v", f)
	}
	n, err := f.AppendPage([]byte("hello"))
	if err != nil || n != 0 {
		t.Fatalf("AppendPage = %d, %v", n, err)
	}
	page, err := f.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 64 || !bytes.HasPrefix(page, []byte("hello")) {
		t.Errorf("page not padded: %q", page)
	}
	if _, err := f.AppendPage(make([]byte, 65)); err == nil {
		t.Error("oversized page accepted")
	}
	if _, err := f.Page(1); err == nil {
		t.Error("missing page returned")
	}
	if _, err := f.Page(-1); err == nil {
		t.Error("negative page returned")
	}
	if f.Size() != 64 {
		t.Errorf("Size = %d", f.Size())
	}
}

func TestChecksumDetectsChanges(t *testing.T) {
	f := NewFile("x", 16)
	f.MustAppendPage([]byte("aaaa"))
	c1 := f.Checksum()
	g := NewFile("x", 16)
	g.MustAppendPage([]byte("aaab"))
	if c1 == g.Checksum() {
		t.Error("checksum collision on different content")
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	e := NewEnc(64)
	e.U8(7).U16(300).U32(70000).U64(1 << 40).F64(3.25).Raw([]byte{9, 9})
	d := NewDec(e.Bytes())
	if d.U8() != 7 || d.U16() != 300 || d.U32() != 70000 || d.U64() != 1<<40 {
		t.Fatal("integer round trip failed")
	}
	if d.F64() != 3.25 {
		t.Fatal("float round trip failed")
	}
	if !bytes.Equal(d.Raw(2), []byte{9, 9}) {
		t.Fatal("raw round trip failed")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestDecOverrunLatches(t *testing.T) {
	d := NewDec([]byte{1, 2})
	_ = d.U32()
	if d.Err() == nil {
		t.Fatal("overrun not detected")
	}
	if d.U8() != 0 || d.U64() != 0 {
		t.Error("post-error reads should return zero")
	}
}

func TestEncDecPropertyRoundTrip(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, dd uint64, x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		e := NewEnc(32)
		e.U8(a).U16(b).U32(c).U64(dd).F64(x)
		d := NewDec(e.Bytes())
		return d.U8() == a && d.U16() == b && d.U32() == c && d.U64() == dd && d.F64() == x && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// readSpan reassembles a packed record from the pages its span names.
func readSpan(f *File, s Span) ([]byte, error) {
	var out []byte
	for i := 0; i < s.Pages; i++ {
		page, err := f.Page(s.Page + i)
		if err != nil {
			return nil, err
		}
		out = append(out, page...)
	}
	if s.Off+s.Len > len(out) {
		return nil, fmt.Errorf("span overruns its pages: %+v", s)
	}
	return out[s.Off : s.Off+s.Len], nil
}

func TestPackerNoStraddle(t *testing.T) {
	// §5.3: a record smaller than a page never stretches over two pages.
	f := NewFile("Fi", 100)
	p := NewPacker(f)
	var spans []Span
	recs := [][]byte{
		make([]byte, 60), make([]byte, 60), // second cannot share page 0
		make([]byte, 30), make([]byte, 40), // 30 joins the second 60; 40 opens a new page
		make([]byte, 250), // large: starts at boundary, spans 3 pages
		make([]byte, 10),
	}
	for i, r := range recs {
		for j := range r {
			r[j] = byte(i + 1)
		}
		spans = append(spans, p.Append(r))
	}
	p.Flush()

	if spans[0].Page == spans[1].Page {
		t.Error("60+60 byte records straddled a 100-byte page")
	}
	if spans[1].Page != spans[2].Page {
		t.Error("60+30 byte records should share a page")
	}
	if spans[3].Page == spans[2].Page {
		t.Error("40-byte record should have opened a new page (only 10 free)")
	}
	if spans[4].Pages != 3 || spans[4].Off != 0 {
		t.Errorf("large record span = %+v, want 3 pages from offset 0", spans[4])
	}
	if p.MaxSpanPages() != 3 {
		t.Errorf("MaxSpanPages = %d, want 3", p.MaxSpanPages())
	}
	// Round trip every record.
	for i, s := range spans {
		got, err := readSpan(f, s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("record %d corrupted by packing", i)
		}
	}
}

func TestPackerRandomizedRoundTrip(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pageSize := 32 + rng.Intn(200)
		f := NewFile("t", pageSize)
		p := NewPacker(f)
		n := 1 + rng.Intn(60)
		recs := make([][]byte, n)
		spans := make([]Span, n)
		for i := range recs {
			recs[i] = make([]byte, 1+rng.Intn(3*pageSize))
			rng.Read(recs[i])
			spans[i] = p.Append(recs[i])
		}
		p.Flush()
		for i, s := range spans {
			got, err := readSpan(f, s)
			if err != nil || !bytes.Equal(got, recs[i]) {
				return false
			}
			// No-straddle invariant for small records.
			if len(recs[i]) <= pageSize && s.Pages != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPackerCurrentFree(t *testing.T) {
	f := NewFile("t", 100)
	p := NewPacker(f)
	if p.CurrentFree() != 100 {
		t.Errorf("fresh CurrentFree = %d", p.CurrentFree())
	}
	p.Append(make([]byte, 30))
	if p.CurrentFree() != 70 {
		t.Errorf("CurrentFree = %d, want 70", p.CurrentFree())
	}
}

// TestFilePageAppendStaysInPage: a page's capacity ends with the page, so
// appending to a page Page returned copies instead of writing into the
// next page of the shared buffer.
func TestFilePageAppendStaysInPage(t *testing.T) {
	f := NewFile("F", 16)
	f.MustAppendPage(bytes.Repeat([]byte{1}, 16))
	f.MustAppendPage(bytes.Repeat([]byte{2}, 16))
	p0, err := f.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	if cap(p0) != 16 {
		t.Errorf("cap(Page(0)) = %d, want 16", cap(p0))
	}
	_ = append(p0, 0xEE)
	p1, err := f.Page(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, bytes.Repeat([]byte{2}, 16)) {
		t.Errorf("append to page 0 wrote into page 1: %v", p1)
	}
}

// TestFilePagesSurviveAppends: pages read before later AppendPage calls
// (enough of them to move the buffer) still hold their bytes — the Reader
// contract a store that keeps the slices relies on.
func TestFilePagesSurviveAppends(t *testing.T) {
	const ps = 24
	f := NewFile("F", ps)
	rng := rand.New(rand.NewSource(5))
	var want, held [][]byte
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+rng.Intn(ps))
		rng.Read(data)
		n := f.MustAppendPage(data)
		p, err := f.Page(n)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, append([]byte(nil), p...))
		held = append(held, p)
	}
	for i := range held {
		if !bytes.Equal(held[i], want[i]) {
			t.Fatalf("page %d changed after later appends", i)
		}
		if p, _ := f.Page(i); !bytes.Equal(p, want[i]) {
			t.Fatalf("Page(%d) differs from the page read at append time", i)
		}
	}
}

// TestFileMetadataAcrossAppends: NumPages, Size and Checksum keep their
// per-page meaning as the buffer grows — one page per append, whole pages of
// size, and the CRC of the zero-padded pages in order.
func TestFileMetadataAcrossAppends(t *testing.T) {
	const ps = 40
	f := NewFile("F", ps)
	rng := rand.New(rand.NewSource(9))
	var padded []byte
	for i := 0; i < 200; i++ {
		data := make([]byte, rng.Intn(ps+1))
		rng.Read(data)
		f.MustAppendPage(data)
		page := make([]byte, ps)
		copy(page, data)
		padded = append(padded, page...)
		if f.NumPages() != i+1 || f.Size() != int64((i+1)*ps) {
			t.Fatalf("after %d appends: NumPages %d, Size %d", i+1, f.NumPages(), f.Size())
		}
		if got, want := f.Checksum(), crc32.ChecksumIEEE(padded); got != want {
			t.Fatalf("after %d appends: Checksum %08x, want %08x", i+1, got, want)
		}
	}
}
