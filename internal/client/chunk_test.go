package client

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/server"
	"repro/internal/wire"
)

// serveChunkFixture hosts file F, 40 pages of 512 bytes, each filled with
// its page number, on a loopback daemon with the given options.
func serveChunkFixture(t *testing.T, opts server.Options) (string, [][]byte) {
	t.Helper()
	pages := make([][]byte, 40)
	for i := range pages {
		pages[i] = bytes.Repeat([]byte{byte(i)}, 512)
	}
	db := &lbs.Database{Scheme: "T", Header: []byte("chunking fixture\n"), Files: []pagefile.Reader{pagefile.SlicePages("F", 512, pages)}}
	srv := server.New(opts)
	if err := srv.Host("T", db, costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return ln.Addr().String(), pages
}

// TestQuotaChunksFitTheFrameLimit: a frame of more pages than one reply
// frame can carry goes out in chunks of wire.FramePages pages, so every
// reply fits the limit the reader enforces — a reply past it would fail
// the connection — and the chunks' answers come back as the frame's pages,
// in order, on the fetch path and the share path alike. The daemon still
// records one trace line per page.
func TestQuotaChunksFitTheFrameLimit(t *testing.T) {
	defer func(old int) { maxFrame = old }(maxFrame)
	maxFrame = 4 << 10
	if per := wire.FramePages("F", 512, maxFrame); per >= 30 {
		t.Fatalf("%d pages fit a frame: the test no longer needs chunking", per)
	}
	ctx := context.Background()
	want := make([]int, 30)
	for i := range want {
		want[i] = (i * 7) % 40
	}

	addr, pages := serveChunkFixture(t, server.Options{})
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := c.StartQuery()
	got, err := q.ReadFrames(ctx, []lbs.Frame{{NewRound: true}, {File: "F", Pages: want}, {File: "F", Pages: []int{39}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != len(want) || len(got[2]) != 1 || !bytes.Equal(got[2][0], pages[39]) {
		t.Fatalf("got %d and %d pages, want %d and 1", len(got[1]), len(got[2]), len(want))
	}
	for i, p := range want {
		if !bytes.Equal(got[1][i], pages[p]) {
			t.Fatalf("page %d of the chunked frame is not page %d", i, p)
		}
	}
	trace, err := q.End(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(trace, "  fetch F\n"); lines != 31 {
		t.Errorf("daemon recorded %d fetch lines, want 31:\n%s", lines, trace)
	}

	raddr, _ := serveChunkFixture(t, server.Options{Stores: lbs.XORStores, ReplicaRole: true})
	rc, err := Dial(raddr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	sels := make([][]byte, len(want))
	for i, p := range want {
		sels[i] = make([]byte, 5)
		sels[i][p/8] = 1 << (p % 8)
	}
	rq := rc.StartQuery()
	answers, err := rq.ReadShareFrames(ctx, []ShareFrame{{NewRound: true}, {File: "F", Sels: sels}})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range want {
		if !bytes.Equal(answers[1][i], pages[p]) {
			t.Fatalf("share %d of the chunked frame does not answer page %d", i, p)
		}
	}
	if _, err := rq.End(ctx); err != nil {
		t.Fatal(fmt.Errorf("replica: %w", err))
	}
}
