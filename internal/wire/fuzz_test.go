package wire

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/lbs"
)

// FuzzDecodeFrame throws arbitrary byte streams at the v3 frame reader: it
// must either return a well-formed (type, query ID, payload) triple or an
// error — never panic, never hang, never allocate beyond the frame limit.
func FuzzDecodeFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, MsgHello, ControlID, Hello{Version: ProtocolVersion, Database: "CI"}.Encode())
	f.Add(seed.Bytes())
	var batch bytes.Buffer
	WriteFrame(&batch, MsgFetch, 42, Fetch{File: "Fd", Pages: []uint32{0, 7, 1 << 30}}.Encode())
	f.Add(batch.Bytes())
	var cancel bytes.Buffer
	WriteFrame(&cancel, MsgCancel, 0xFFFFFFFF, Cancel{Reason: CancelDeadline}.Encode())
	f.Add(cancel.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, byte(MsgNextRound), 0, 0, 0, 9})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // hostile length header
	f.Add([]byte{0, 0, 0, 0, byte(MsgHello), 1, 2, 3})                  // v2-style 5-byte header, truncated
	f.Add([]byte{0, 0, 0, 10, byte(MsgHello), 0, 0, 0, 1, 1, 2, 3})     // short payload

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, qid, payload, err := ReadFrame(bytes.NewReader(data), maxFrame)
		if err != nil {
			return
		}
		if len(payload) > maxFrame {
			t.Fatalf("payload of %d bytes exceeds the %d limit", len(payload), maxFrame)
		}
		// A successfully read frame must survive a write/read round trip,
		// query ID included.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, qid, payload); err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		typ2, qid2, payload2, err := ReadFrame(&buf, maxFrame)
		if err != nil || typ2 != typ || qid2 != qid || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip diverged: %v, %s/%d vs %s/%d", err, typ2, qid2, typ, qid)
		}
	})
}

// FuzzDecodeBatchRequest fuzzes the batched-Fetch payload decoder — the
// message a hostile client controls most directly. Any payload the decoder
// accepts must re-encode to the identical bytes (the codec is canonical),
// and its page count must respect the 16-bit batch bound. The re-encoding
// is decoded into a value that last held another frame, as a serving loop
// reuses one: nothing of that frame may survive.
func FuzzDecodeBatchRequest(f *testing.F) {
	stale := Fetch{File: "Fstale", Pages: []uint32{9, 9, 9, 9, 9}}.Encode()
	f.Add(Fetch{File: "Fd", Pages: []uint32{0, 1, 2}}.Encode())
	f.Add(Fetch{File: "", Pages: nil}.Encode())
	f.Add(Fetch{File: "Fl", Pages: []uint32{0xFFFFFFFF}}.Encode())
	f.Add([]byte{0, 1, 'F', 0, 5, 0, 0}) // count promises pages that never arrive
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m, m2 Fetch
		if err := m2.DecodeInto(stale); err != nil {
			t.Fatal(err)
		}
		if err := m.DecodeInto(data); err != nil {
			return
		}
		if len(m.Pages) > MaxFetchBatch {
			t.Fatalf("decoded %d pages, beyond the %d batch bound", len(m.Pages), MaxFetchBatch)
		}
		re := m.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical:\n in: %x\nout: %x", data, re)
		}
		if err := m2.DecodeInto(re); err != nil || m2.File != m.File || !slices.Equal(m2.Pages, m.Pages) {
			t.Fatalf("round trip over a reused value diverged: %v, %+v vs %+v", err, m2, m)
		}
	})
}

// FuzzDecodeShareFetch fuzzes the selector-share payload decoder — the v4
// message a fleet client (or a hostile peer) aims at a replica daemon.
// Accepted payloads must be canonical and respect the 16-bit batch bound,
// and the re-encoding decodes into a value that last held another frame
// with nothing of that frame left over.
func FuzzDecodeShareFetch(f *testing.F) {
	stale := ShareFetch{File: "Fstale", Sels: [][]byte{{0xEE, 0xEE}, {0xEE}, {}}}.Encode()
	f.Add(ShareFetch{File: "Fd", Sels: [][]byte{{0xA5, 0x01}, {0x00, 0x02}}}.Encode())
	f.Add(ShareFetch{File: "", Sels: nil}.Encode())
	f.Add([]byte{0, 1, 'F', 0, 1, 0, 0, 0, 9, 1}) // selector length overruns payload
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m, m2 ShareFetch
		if err := m2.DecodeInto(stale); err != nil {
			t.Fatal(err)
		}
		if err := m.DecodeInto(data); err != nil {
			return
		}
		if len(m.Sels) > MaxFetchBatch {
			t.Fatalf("decoded %d selectors, beyond the %d batch bound", len(m.Sels), MaxFetchBatch)
		}
		re := m.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical:\n in: %x\nout: %x", data, re)
		}
		if err := m2.DecodeInto(re); err != nil || m2.File != m.File || !slices.EqualFunc(m2.Sels, m.Sels, bytes.Equal) {
			t.Fatalf("round trip over a reused value diverged: %v, %+v vs %+v", err, m2, m)
		}
	})
}

// FuzzDecodeHello fuzzes the Hello decoder — the one payload the daemon
// decodes from a connection not yet bound to a database. Accepted payloads
// must be canonical and round-trip field for field.
func FuzzDecodeHello(f *testing.F) {
	f.Add(Hello{Version: ProtocolVersion, Database: "ci"}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0, 7, 0xFF, 0xFF, 'c', 'i'}) // name length overruns the payload

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeHello(data)
		if err != nil {
			return
		}
		re := m.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical:\n in: %x\nout: %x", data, re)
		}
		if m2, err := DecodeHello(re); err != nil || m2 != m {
			t.Fatalf("round trip diverged: %v, %+v vs %+v", err, m2, m)
		}
	})
}

// FuzzDecodeWelcome fuzzes the Welcome decoder — the handshake reply from
// which a client takes the scheme, the file table and the public header it
// runs every query on. Accepted payloads must name a scheme and a database,
// be canonical and round-trip field for field.
func FuzzDecodeWelcome(f *testing.F) {
	f.Add(Welcome{
		Scheme: "CI", Database: "ci", Flags: WelcomeShareCapable,
		Files:  []lbs.FileInfo{{Name: "Fl", NumPages: 3, PageSize: 4096}},
		Header: []byte("public header"),
	}.Encode())
	f.Add(Welcome{}.Encode())                                               // names no scheme or database: must be refused
	f.Add([]byte{0, 2, 'C', 'I', 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}) // header length overruns payload
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeWelcome(data)
		if err != nil {
			return
		}
		if m.Scheme == "" || m.Database == "" {
			t.Fatalf("accepted a Welcome naming scheme %q, database %q", m.Scheme, m.Database)
		}
		re := m.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical:\n in: %x\nout: %x", data, re)
		}
		m2, err := DecodeWelcome(re)
		if err != nil || m2.Scheme != m.Scheme || m2.Database != m.Database || m2.Flags != m.Flags ||
			!slices.Equal(m2.Files, m.Files) || !bytes.Equal(m2.Header, m.Header) {
			t.Fatalf("round trip diverged: %v", err)
		}
	})
}

// FuzzDecodeBusy fuzzes the Busy payload decoder — the v5 overload-shed
// reply a client parses from an untrusted server. Accepted payloads must be
// canonical and carry exactly one u32 hint.
func FuzzDecodeBusy(f *testing.F) {
	f.Add(Busy{RetryAfterMillis: 0}.Encode())
	f.Add(Busy{RetryAfterMillis: 25}.Encode())
	f.Add(Busy{RetryAfterMillis: 0xFFFFFFFF}.Encode())
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 2, 3, 4, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBusy(data)
		if err != nil {
			return
		}
		re := m.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzDecodeCancel fuzzes the Cancel payload decoder — the new v3 message a
// hostile client sends to abort queries. Accepted payloads must be
// canonical and carry exactly one reason byte.
func FuzzDecodeCancel(f *testing.F) {
	f.Add(Cancel{Reason: CancelAbandon}.Encode())
	f.Add(Cancel{Reason: CancelContext}.Encode())
	f.Add(Cancel{Reason: CancelDeadline}.Encode())
	f.Add([]byte{0xFF})
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeCancel(data)
		if err != nil {
			return
		}
		re := m.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzPagesReply round-trips a Pages reply streamed from page buffers
// (FrameWriter.WritePages): at any page count and page size it must read
// back as one MsgPages frame for the query, equal byte for byte to the frame
// of the encoded payload, and decode to the same pages.
func FuzzPagesReply(f *testing.F) {
	f.Add(uint16(0), uint16(4096), uint32(1), byte(0))
	f.Add(uint16(1), uint16(1), uint32(0), byte(7))
	f.Add(uint16(52), uint16(4096), uint32(0xFFFFFFFF), byte(0xA5))
	f.Add(uint16(300), uint16(3), uint32(9), byte(1))

	f.Fuzz(func(t *testing.T, n16, ps16 uint16, qid uint32, fill byte) {
		n, ps := int(n16)%600, int(ps16)%5000
		pages := make([][]byte, n)
		for i := range pages {
			pages[i] = bytes.Repeat([]byte{fill ^ byte(i)}, ps)
		}
		var got, want bytes.Buffer
		if size, err := NewFrameWriter(&got).WritePages(qid, pages); err != nil || size != got.Len() {
			t.Fatalf("wrote %d of %d bytes: %v", size, got.Len(), err)
		}
		if err := WriteFrame(&want, MsgPages, qid, Pages{Pages: pages}.Encode()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d pages of %d bytes: streamed reply differs from the encoded frame", n, ps)
		}
		typ, id, payload, err := ReadFrame(&got, DefaultMaxFrame)
		if err != nil || typ != MsgPages || id != qid {
			t.Fatalf("read back %s/%d: %v", typ, id, err)
		}
		m, err := DecodePages(payload)
		if err != nil || len(m.Pages) != n {
			t.Fatalf("decoded %d pages, want %d: %v", len(m.Pages), n, err)
		}
		for i := range pages {
			if !bytes.Equal(m.Pages[i], pages[i]) {
				t.Fatalf("page %d differs", i)
			}
		}
	})
}
