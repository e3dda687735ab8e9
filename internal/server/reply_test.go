package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/plan"
	"repro/internal/wire"
)

// streamFixture hosts file A (60 pages of 4 KB) and file B (9 pages of an
// odd 13 bytes), under a plan of one round reading 52 pages of A and 2 of
// B, with the given options, and returns the daemon's address and the
// files' pages.
func streamFixture(t *testing.T, opts Options) (string, map[string][][]byte) {
	t.Helper()
	pages := map[string][][]byte{"A": numberedPages(60, 4096), "B": numberedPages(9, 13)}
	db := &lbs.Database{
		Scheme: "T",
		Header: []byte("streamed reply fixture\n"),
		Files:  []pagefile.Reader{pagefile.SlicePages("A", 4096, pages["A"]), pagefile.SlicePages("B", 13, pages["B"])},
		Plan:   plan.Plan{Rounds: []plan.Round{{Fetches: []plan.Fetch{{File: "A", Count: 52}, {File: "B", Count: 2}}}}},
	}
	srv := New(opts)
	if err := srv.Host("T", db, costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	done, addr := listen(t, srv)
	t.Cleanup(func() { shutdown(t, srv, done) })
	return addr, pages
}

// rawConn dials addr and runs the handshake, returning the raw connection
// and a reader over it: the first frame a test writes for a query ID opens
// that query.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	br := bufio.NewReader(conn)
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.ControlID, wire.Hello{Version: wire.ProtocolVersion}.Encode()); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := wire.ReadFrame(br, wire.DefaultMaxFrame); err != nil || typ != wire.MsgWelcome {
		t.Fatalf("handshake: %s, %v", typ, err)
	}
	return conn, br
}

// TestStreamedPagesReply: the daemon writes a fetch's reply from its page
// buffers as wire.ReplyFrames consecutive Pages frames of wire.ReplyCut
// pages, and what arrives is, frame by frame, the frame of the encoded
// payload of those pages byte for byte — for a plain fetch of a round's 52
// pages (eight frames at 4 KB), at 4-KB and at odd page sizes, and for a
// replica's share fetch — while, on one shared client connection,
// concurrent queries stream their replies between each other's.
func TestStreamedPagesReply(t *testing.T) {
	addr, pages := streamFixture(t, Options{})
	conn, br := rawConn(t, addr)
	round := make([]uint32, 52)
	for i := range round {
		round[i] = uint32(i)
	}
	for _, c := range []struct {
		file string
		idx  []uint32
	}{
		{"A", round}, {"A", []uint32{59, 3, 3}}, {"B", []uint32{8, 0, 7, 1, 1, 2, 6}},
	} {
		if err := wire.WriteFrame(conn, wire.MsgFetch, 1, wire.Fetch{File: c.file, Pages: c.idx}.Encode()); err != nil {
			t.Fatal(err)
		}
		ps := len(pages[c.file][0])
		cut, frames := wire.ReplyCut(c.file, ps), wire.ReplyFrames(c.file, ps, len(c.idx))
		if c.file == "A" && len(c.idx) == 52 && (cut != 7 || frames != 8) {
			t.Fatalf("52 pages of 4 KB cut into %d frames of %d pages, want 8 of 7", frames, cut)
		}
		for lo := 0; lo < len(c.idx); lo += cut {
			typ, qid, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
			if err != nil || typ != wire.MsgPages || qid != 1 {
				t.Fatalf("%s%v: reply frame %d: %s/%d, %v", c.file, c.idx, lo/cut, typ, qid, err)
			}
			var want wire.Pages
			for _, p := range c.idx[lo:min(lo+cut, len(c.idx))] {
				want.Pages = append(want.Pages, pages[c.file][p])
			}
			if !bytes.Equal(payload, want.Encode()) {
				t.Errorf("%s%v: streamed reply frame %d differs from the encoded payload", c.file, c.idx, lo/cut)
			}
		}
	}

	replica, rpages := streamFixture(t, Options{Stores: lbs.XORStores, ReplicaRole: true})
	conn, br = rawConn(t, replica)
	sels := make([][]byte, 9)
	for i := range sels {
		sels[i] = make([]byte, 2)
		sels[i][i/8] = 1 << (i % 8) // selector i picks page i alone
	}
	if err := wire.WriteFrame(conn, wire.MsgFetchShare, 1, wire.ShareFetch{File: "B", Sels: sels}.Encode()); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil || typ != wire.MsgPages {
		t.Fatalf("share reply %s: %v", typ, err)
	}
	if !bytes.Equal(payload, wire.Pages{Pages: rpages["B"]}.Encode()) {
		t.Error("streamed share reply differs from the encoded payload")
	}

	c := dialDB(t, addr, "T")
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 10 {
				q := c.StartQuery()
				idx := make([]int, 52)
				for i := range idx {
					idx[i] = (i*7 + g + n) % 60
				}
				got, err := q.ReadFrames(context.Background(), []lbs.Frame{{NewRound: true}, {File: "A", Pages: idx}, {File: "B", Pages: []int{g, 8 - g}}})
				if err == nil {
					for i, p := range idx {
						if !bytes.Equal(got[1][i], pages["A"][p]) {
							err = fmt.Errorf("query %d.%d: page %d of A differs", g, n, p)
						}
					}
					if !bytes.Equal(got[2][1], pages["B"][8-g]) {
						err = fmt.Errorf("query %d.%d: page %d of B differs", g, n, 8-g)
					}
				}
				if err == nil {
					_, err = q.End(context.Background())
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestNoFetchReadsARecycledFrame: a request frame's buffer goes back to the
// daemon's frame list only once the frame is handled, and a FetchShare's
// selectors alias it until the reply is written. With every buffer given
// back to the frame list poisoned, queries sending share fetches of random
// selectors and queries sending plain fetches run concurrently on one
// connection, and every answer must equal, byte for byte, the XOR of the
// pages its selector picks or the page it names. A fetch that read its
// request after the frame went back would fold poisoned selectors, or
// another frame's bytes, instead; under -race such a read shows as a race
// too.
func TestNoFetchReadsARecycledFrame(t *testing.T) {
	defer func(old bool) { poisonFrames = old }(poisonFrames)
	poisonFrames = true
	addr, pages := streamFixture(t, Options{Stores: lbs.XORStores})
	c := dialDB(t, addr, "T")
	xorOf := func(file string, sel []byte) []byte {
		want := make([]byte, len(pages[file][0]))
		for p, page := range pages[file] {
			if sel[p/8]&(1<<(p%8)) != 0 {
				for i := range want {
					want[i] ^= page[i]
				}
			}
		}
		return want
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := range 10 {
				ctx := context.Background()
				q := c.StartQuery()
				var err error
				if g%2 == 0 {
					selsA, selsB := make([][]byte, 52), make([][]byte, 2)
					for i := range selsA {
						selsA[i] = make([]byte, 8)
						rng.Read(selsA[i])
					}
					for i := range selsB {
						selsB[i] = make([]byte, 2)
						rng.Read(selsB[i])
					}
					var got [][][]byte
					got, err = q.ReadShareFrames(ctx, []client.ShareFrame{{NewRound: true}, {File: "A", Sels: selsA}, {File: "B", Sels: selsB}})
					for i, sel := range selsA {
						if err == nil && !bytes.Equal(got[1][i], xorOf("A", sel)) {
							err = fmt.Errorf("share query %d.%d: answer %d over A differs from its selector's XOR", g, n, i)
						}
					}
					for i, sel := range selsB {
						if err == nil && !bytes.Equal(got[2][i], xorOf("B", sel)) {
							err = fmt.Errorf("share query %d.%d: answer %d over B differs from its selector's XOR", g, n, i)
						}
					}
				} else {
					idx := make([]int, 52)
					for i := range idx {
						idx[i] = rng.Intn(60)
					}
					b := []int{rng.Intn(9), rng.Intn(9)}
					var got [][][]byte
					got, err = q.ReadFrames(ctx, []lbs.Frame{{NewRound: true}, {File: "A", Pages: idx}, {File: "B", Pages: b}})
					for i, p := range idx {
						if err == nil && !bytes.Equal(got[1][i], pages["A"][p]) {
							err = fmt.Errorf("query %d.%d: page %d of A differs", g, n, p)
						}
					}
					for i, p := range b {
						if err == nil && !bytes.Equal(got[2][i], pages["B"][p]) {
							err = fmt.Errorf("query %d.%d: page %d of B differs", g, n, p)
						}
					}
				}
				if err == nil {
					_, err = q.End(ctx)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
