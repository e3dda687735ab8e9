package wire

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/lbs"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 100000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, MsgFetch, uint32(i*7), p); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		typ, qid, got, err := ReadFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != MsgFetch {
			t.Errorf("frame %d: type %s", i, typ)
		}
		if qid != uint32(i*7) {
			t.Errorf("frame %d: query ID %d, want %d", i, qid, i*7)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgPages, 1, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFrame(&buf, 512); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestReadFrameShortPayload(t *testing.T) {
	// A frame header promising more bytes than arrive must error, not hang
	// or return garbage.
	r := bytes.NewReader([]byte{0, 0, 0, 10, byte(MsgHello), 0, 0, 0, 1, 1, 2, 3})
	if _, _, _, err := ReadFrame(r, DefaultMaxFrame); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, _, _, err := ReadFrame(bytes.NewReader(nil), DefaultMaxFrame); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
	// A header shorter than the 9 fixed bytes (for instance a v2 peer's
	// 5-byte header followed by nothing) must error cleanly too.
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0, byte(MsgHello)}), DefaultMaxFrame); err == nil {
		t.Error("short v2-style header accepted")
	}
}

func TestCancelRoundTrip(t *testing.T) {
	for _, reason := range []uint8{CancelAbandon, CancelContext, CancelDeadline} {
		m := Cancel{Reason: reason}
		got, err := DecodeCancel(m.Encode())
		if err != nil || got != m {
			t.Errorf("reason %d: got %+v, %v", reason, got, err)
		}
	}
	if _, err := DecodeCancel(nil); err == nil {
		t.Error("empty Cancel accepted")
	}
	if _, err := DecodeCancel([]byte{1, 2}); err == nil {
		t.Error("oversized Cancel accepted")
	}
}

func TestBusyRoundTrip(t *testing.T) {
	for _, hint := range []uint32{0, 25, 1000, 0xFFFFFFFF} {
		m := Busy{RetryAfterMillis: hint}
		got, err := DecodeBusy(m.Encode())
		if err != nil || got != m {
			t.Errorf("hint %d: got %+v, %v", hint, got, err)
		}
	}
	if _, err := DecodeBusy(nil); err == nil {
		t.Error("empty Busy accepted")
	}
	if _, err := DecodeBusy([]byte{1, 2, 3}); err == nil {
		t.Error("short Busy accepted")
	}
	if _, err := DecodeBusy([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Error("oversized Busy accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	m := Hello{Version: ProtocolVersion, Database: "CI"}
	got, err := DecodeHello(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	m := Welcome{
		Scheme:   "HY",
		Database: "main",
		Flags:    WelcomeShareCapable | WelcomeReplicaRole,
		Files: []lbs.FileInfo{
			{Name: "Fl", NumPages: 12, PageSize: 4096},
			{Name: "Fc", NumPages: 9999, PageSize: 512},
		},
		Header: []byte("public header"),
	}
	got, err := DecodeWelcome(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != m.Scheme || got.Database != m.Database {
		t.Errorf("identity: got %q/%q", got.Scheme, got.Database)
	}
	if got.Flags != m.Flags {
		t.Errorf("flags: got %#x, want %#x", got.Flags, m.Flags)
	}
	if len(got.Files) != 2 || got.Files[0] != m.Files[0] || got.Files[1] != m.Files[1] {
		t.Errorf("files: got %+v", got.Files)
	}
	if !bytes.Equal(got.Header, m.Header) {
		t.Errorf("header: got %q, want %q", got.Header, m.Header)
	}
}

func TestFetchRoundTrip(t *testing.T) {
	m := Fetch{File: "Fd", Pages: []uint32{0, 7, 7, 1 << 30}}
	var got Fetch
	if err := got.DecodeInto(m.Encode()); err != nil {
		t.Fatal(err)
	}
	if got.File != m.File || len(got.Pages) != len(m.Pages) {
		t.Fatalf("got %+v", got)
	}
	for i := range m.Pages {
		if got.Pages[i] != m.Pages[i] {
			t.Errorf("page %d: got %d", i, got.Pages[i])
		}
	}
}

func TestShareFetchRoundTrip(t *testing.T) {
	m := ShareFetch{File: "Fd", Sels: [][]byte{
		bytes.Repeat([]byte{0x5A}, 33), {}, {0xFF},
	}}
	var got ShareFetch
	if err := got.DecodeInto(m.Encode()); err != nil {
		t.Fatal(err)
	}
	if got.File != m.File || len(got.Sels) != len(m.Sels) {
		t.Fatalf("got %+v", got)
	}
	for i := range m.Sels {
		if !bytes.Equal(got.Sels[i], m.Sels[i]) {
			t.Errorf("selector %d mismatch", i)
		}
	}
	// DecodeInto reuses storage across decodes.
	m2 := ShareFetch{File: "Fd", Sels: [][]byte{{1}}}
	if err := got.DecodeInto(m2.Encode()); err != nil {
		t.Fatal(err)
	}
	if got.File != "Fd" || len(got.Sels) != 1 || !bytes.Equal(got.Sels[0], []byte{1}) {
		t.Errorf("DecodeInto reuse: got %+v", got)
	}
	// A selector length promising bytes that never arrive must be rejected.
	if err := got.DecodeInto([]byte{0, 1, 'F', 0, 1, 0, 0, 0, 9, 1}); err == nil {
		t.Error("ShareFetch with short selector accepted")
	}
}

func TestPagesRoundTrip(t *testing.T) {
	m := Pages{Pages: [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{7}, 4096)}}
	got, err := DecodePages(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pages) != 3 {
		t.Fatalf("got %d pages", len(got.Pages))
	}
	for i := range m.Pages {
		if !bytes.Equal(got.Pages[i], m.Pages[i]) {
			t.Errorf("page %d mismatch", i)
		}
	}
}

// TestWritePagesMatchesEncode: a Pages reply streamed from the page
// buffers is byte for byte the frame of the encoded payload — at no pages,
// one, seven, a CI round's 52, and a count on the chunk boundary
// FramePages draws — at odd page sizes as well as the 4-KB one; and a
// batch the 16-bit count cannot carry is refused before anything is
// written.
func TestWritePagesMatchesEncode(t *testing.T) {
	const maxFrame = 1 << 20
	for _, ps := range []int{1, 3, 8, 513, 4096} {
		for _, n := range []int{0, 1, 7, 52, FramePages("Fd", ps, maxFrame)} {
			pages := make([][]byte, n)
			for i := range pages {
				pages[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, ps)[:ps]
			}
			var want, got bytes.Buffer
			if err := WriteFrame(&want, MsgPages, 7, Pages{Pages: pages}.Encode()); err != nil {
				t.Fatal(err)
			}
			size, err := NewFrameWriter(&got).WritePages(7, pages)
			if err != nil {
				t.Fatalf("ps %d n %d: %v", ps, n, err)
			}
			if size != got.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("ps %d n %d: streamed reply differs from the encoded frame", ps, n)
			}
			if n == FramePages("Fd", ps, maxFrame) && got.Len()-FrameOverhead > maxFrame {
				t.Errorf("ps %d: a %d-page reply is %d bytes, over the %d frame limit", ps, n, got.Len()-FrameOverhead, maxFrame)
			}
		}
	}
	var out bytes.Buffer
	if _, err := NewFrameWriter(&out).WritePages(1, make([][]byte, MaxFetchBatch+1)); err == nil || out.Len() != 0 {
		t.Errorf("a %d-page reply: err %v, %d bytes written", MaxFetchBatch+1, err, out.Len())
	}
}

// TestFramePagesFitsTheFrame: at FramePages items both a Fetch or
// FetchShare and its Pages reply fit the frame limit, and one more item
// overflows it unless the 16-bit count was the binding bound.
func TestFramePagesFitsTheFrame(t *testing.T) {
	for _, maxFrame := range []int{64, 4 << 10, 1 << 20, DefaultMaxFrame} {
		for _, ps := range []int{1, 7, 512, 4096, 8192} {
			k := FramePages("Fd", ps, maxFrame)
			reply := 2 + k*(4+ps)
			share := 2 + 2 + 2 + k*(4+ps)
			if k > 1 && (reply > maxFrame || share > maxFrame) {
				t.Errorf("limit %d, %d-byte items: %d items make a %d-byte reply, %d-byte request", maxFrame, ps, k, reply, share)
			}
			if k < MaxFetchBatch && 2+(k+1)*(4+ps) <= maxFrame-4 {
				t.Errorf("limit %d, %d-byte items: %d items leave room for another", maxFrame, ps, k)
			}
		}
	}
}

// TestReplyCut: a reply is cut into frames of ReplyCut pages, each a small
// object of at most 32 KiB of payload — 7 pages of 4 KB — and one more page
// would not fit; ReplyFrames counts ⌈k / ReplyCut⌉ frames for k pages.
func TestReplyCut(t *testing.T) {
	if c := ReplyCut("Fd", 4096); c != 7 {
		t.Fatalf("ReplyCut(Fd, 4096) = %d, want 7", c)
	}
	for _, ps := range []int{1, 13, 512, 4096, 4100, 40000} {
		c := ReplyCut("Fd", ps)
		size := 2 + c*(4+ps)
		if c > 1 && size > smallReply {
			t.Errorf("%d-byte pages: a %d-page frame is %d bytes, over %d", ps, c, size, smallReply)
		}
		if c < MaxFetchBatch && 2+(c+1)*(4+ps) <= smallReply-4 {
			t.Errorf("%d-byte pages: %d pages leave room for another", ps, c)
		}
		for _, k := range []int{1, c - 1, c, c + 1, 3*c + 2} {
			if k < 1 {
				continue
			}
			if got, want := ReplyFrames("Fd", ps, k), (k+c-1)/c; got != want {
				t.Errorf("%d-byte pages: ReplyFrames(%d) = %d, want %d", ps, k, got, want)
			}
		}
	}
}

// TestDecodePagesAliasesFrame pins the client's decode cost: the pages are
// views of the frame payload, so decoding allocates the slice of pages and
// nothing per page.
func TestDecodePagesAliasesFrame(t *testing.T) {
	m := Pages{Pages: [][]byte{bytes.Repeat([]byte{1}, 4096), bytes.Repeat([]byte{2}, 4096), bytes.Repeat([]byte{3}, 4096)}}
	frame := m.Encode()
	got, err := DecodePages(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] = 9
	if last := got.Pages[2]; last[len(last)-1] != 9 {
		t.Error("decoded page is a copy of the frame payload, want a view")
	}
	if allocs := testing.AllocsPerRun(100, func() { DecodePages(frame) }); allocs > 1 {
		t.Errorf("DecodePages allocates %.0f objects for 3 pages, want 1", allocs)
	}
}

func TestQueryDoneAndErrorRoundTrip(t *testing.T) {
	q := QueryDone{Trace: "round 1:\n  fetch Fl\n"}
	gotQ, err := DecodeQueryDone(q.Encode())
	if err != nil || gotQ.Trace != q.Trace {
		t.Errorf("QueryDone: %+v, %v", gotQ, err)
	}
	e := ErrorMsg{Text: "no such database"}
	gotE, err := DecodeErrorMsg(e.Encode())
	if err != nil || gotE.Text != e.Text {
		t.Errorf("ErrorMsg: %+v, %v", gotE, err)
	}
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	if _, err := DecodeHello([]byte{1}); err == nil {
		t.Error("truncated Hello accepted")
	}
	if _, err := DecodeWelcome([]byte{0, 2, 'C'}); err == nil {
		t.Error("truncated Welcome accepted")
	}
	// Every session is bound, so a Welcome naming no scheme or no database
	// is not one a daemon sends.
	for _, w := range []Welcome{{}, {Database: "ci"}, {Scheme: "CI"}} {
		if _, err := DecodeWelcome(w.Encode()); err == nil {
			t.Errorf("Welcome with scheme %q, database %q accepted", w.Scheme, w.Database)
		}
	}
	if err := new(Fetch).DecodeInto([]byte{0, 1, 'F', 0, 5, 0, 0}); err == nil {
		t.Error("Fetch with missing pages accepted")
	}
	if _, err := DecodePages([]byte{0, 1, 0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("Pages with absurd length accepted")
	}
	// Trailing garbage is a framing bug and must be rejected too.
	b := append(Hello{Version: 1, Database: "x"}.Encode(), 0xEE)
	if _, err := DecodeHello(b); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing bytes: err = %v", err)
	}
}

// TestReadFrameIntoAllocatesNothing: a FrameReader stages headers in its
// own buffer and reads each payload into the buffer get supplies for its
// exact length, so a stream of replies read into recycled buffers costs no
// allocation. A payload shorter than a header does not alias the header
// buffer: it survives the next read. A frame with no payload asks get for
// nothing and reads as nil.
func TestReadFrameIntoAllocatesNothing(t *testing.T) {
	page := bytes.Repeat([]byte{0x5A}, 4096)
	replies := [][]byte{
		Pages{Pages: [][]byte{page}}.Encode(),
		Pages{}.Encode(),                        // 2-byte payload, shorter than a header
		Pages{Pages: [][]byte{{0x7F}}}.Encode(), // 7-byte payload
		nil,                                     // no payload, as a Pong
		Pages{Pages: [][]byte{page, page, page, page, page, page, page}}.Encode(),
		Pages{Pages: [][]byte{page[:13]}}.Encode(),
	}
	var stream bytes.Buffer
	for i, p := range replies {
		if err := WriteFrame(&stream, MsgPages, uint32(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	rd := bytes.NewReader(stream.Bytes())
	fr := NewFrameReader(rd)

	// One supplied buffer per frame, each a little larger than its payload.
	bufs := make([][]byte, len(replies))
	for i, p := range replies {
		bufs[i] = make([]byte, len(p)+64)
	}
	var i int
	var asked []int
	get := func(n int) []byte {
		asked = append(asked, n)
		return bufs[i]
	}
	for i = range replies {
		typ, qid, payload, err := fr.ReadFrameInto(DefaultMaxFrame, get)
		if err != nil || typ != MsgPages || qid != uint32(i+1) {
			t.Fatalf("frame %d: %v %v %d", i, err, typ, qid)
		}
		if replies[i] == nil {
			if payload != nil {
				t.Errorf("frame %d has no payload, read % x", i, payload)
			}
			continue
		}
		if len(payload) != len(replies[i]) || &payload[0] != &bufs[i][0] {
			t.Errorf("frame %d: payload of %d bytes not read into the supplied buffer", i, len(payload))
		}
	}
	for i, p := range replies {
		if p != nil && !bytes.Equal(bufs[i][:len(p)], p) {
			t.Errorf("payload %d changed after later reads: % x", i, bufs[i][:min(len(p), 16)])
		}
	}
	var want []int
	for _, p := range replies {
		if p != nil {
			want = append(want, len(p))
		}
	}
	if fmt.Sprint(asked) != fmt.Sprint(want) {
		t.Errorf("get asked for %v bytes, want %v", asked, want)
	}
	if _, _, _, err := fr.ReadFrameInto(DefaultMaxFrame, get); err != io.EOF {
		t.Errorf("read past the stream: %v, want io.EOF", err)
	}

	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(stream.Bytes())
		for i = range replies {
			if _, _, _, err := fr.ReadFrameInto(DefaultMaxFrame, func(n int) []byte { return bufs[i] }); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations reading %d frames into supplied buffers, want 0", allocs, len(replies))
	}
}

// TestEncodersRefuseCountsTheyCannotWrite: an item count is 16 bits, so
// MaxFetchBatch items round-trip and one more panics rather than wrap.
func TestEncodersRefuseCountsTheyCannotWrite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		round func(n int) (int, error) // encode n items, decode, return the count
	}{
		{"Fetch", func(n int) (int, error) {
			var m Fetch
			err := m.DecodeInto(Fetch{File: "Fd", Pages: make([]uint32, n)}.Encode())
			return len(m.Pages), err
		}},
		{"ShareFetch", func(n int) (int, error) {
			var m ShareFetch
			err := m.DecodeInto(ShareFetch{File: "Fd", Sels: make([][]byte, n)}.Encode())
			return len(m.Sels), err
		}},
		{"Pages", func(n int) (int, error) {
			m, err := DecodePages(Pages{Pages: make([][]byte, n)}.Encode())
			return len(m.Pages), err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, err := tc.round(MaxFetchBatch); err != nil || got != MaxFetchBatch {
				t.Fatalf("%d items decoded as %d (%v)", MaxFetchBatch, got, err)
			}
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "65536 items") {
					t.Errorf("panic %v, want one naming the count 65536", r)
				}
			}()
			got, err := tc.round(MaxFetchBatch + 1)
			t.Errorf("%d items encoded; decoded as %d (%v)", MaxFetchBatch+1, got, err)
		})
	}
}
