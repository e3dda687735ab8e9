package client

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/wire"
)

// serveQuotaFixture hosts file F, 40 pages of 512 bytes, each filled with
// its page number, on a loopback daemon with the given options. Its plan,
// one round of two quotas of F, sizes each query's inbox on the daemon for
// the batches the tests pipeline: a round, at most two requests, the end.
func serveQuotaFixture(t *testing.T, opts server.Options) (*server.Server, string, [][]byte) {
	t.Helper()
	pages := make([][]byte, 40)
	for i := range pages {
		pages[i] = bytes.Repeat([]byte{byte(i)}, 512)
	}
	db := &lbs.Database{
		Scheme: "T",
		Header: []byte("quota fixture\n"),
		Files:  []pagefile.Reader{pagefile.SlicePages("F", 512, pages)},
		Plan:   plan.Plan{Rounds: []plan.Round{{Fetches: []plan.Fetch{{File: "F", Count: 1}, {File: "F", Count: 1}}}}},
	}
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
	return srv, ln.Addr().String(), pages
}

// counter reads a daemon-wide counter off srv's registry.
func counter(srv *server.Server, name string) uint64 {
	for _, row := range srv.Telemetry().Snapshot() {
		if row.Key == name {
			return row.Counter
		}
	}
	return 0
}

// TestOneRequestPerQuota: a quota of more pages than one reply frame can
// carry goes out as one request, held here to 32 KiB, and the daemon cuts
// its reply into wire.ReplyFrames frames of wire.ReplyCut pages. The
// frames' answers come back as the quota's pages, in
// order, on the fetch path and the share path alike, and the daemon
// records one trace line per page. A quota whose request would not fit one
// frame is refused before any frame of its batch leaves, naming the file
// and the count, and the connection serves the next query.
func TestOneRequestPerQuota(t *testing.T) {
	defer func(old int) { maxFrame = old }(maxFrame)
	maxFrame = 32 << 10
	ctx := context.Background()
	cut := wire.ReplyCut("F", 512)
	// One quota over three reply frames, one past a Fetch request's limit,
	// and one past a FetchShare request's limit (5-byte selectors).
	fetchLimit, shareLimit := wire.FramePages("F", 0, maxFrame), wire.FramePages("F", 5, maxFrame)
	quota := 2*cut + cut/2
	if quota > shareLimit {
		t.Fatalf("a %d-page quota does not fit one request at this frame limit", quota)
	}
	pagesOf := func(n, mul int) []int {
		want := make([]int, n)
		for i := range want {
			want[i] = (i * mul) % 40
		}
		return want
	}
	selsOf := func(idx []int) [][]byte {
		sels := make([][]byte, len(idx))
		for i, p := range idx {
			sels[i] = make([]byte, 5)
			sels[i][p/8] = 1 << (p % 8)
		}
		return sels
	}
	replyFrames := func(ks ...int) uint64 {
		n := 0
		for _, k := range ks {
			n += wire.ReplyFrames("F", 512, k)
		}
		return uint64(n)
	}
	check := func(what string, got [][]byte, want []int, pages [][]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d pages, want %d", what, len(got), len(want))
		}
		for i, p := range want {
			if !bytes.Equal(got[i], pages[p]) {
				t.Fatalf("%s: answer %d is not page %d", what, i, p)
			}
		}
	}
	// frames runs one query and checks the frames the daemon read and wrote
	// for it.
	frames := func(srv *server.Server, read, written uint64, run func()) {
		t.Helper()
		r0, w0 := counter(srv, "privsp_server_frames_read_total"), counter(srv, "privsp_server_frames_written_total")
		run()
		if got := counter(srv, "privsp_server_frames_read_total") - r0; got != read {
			t.Errorf("daemon read %d frames, want %d", got, read)
		}
		if got := counter(srv, "privsp_server_frames_written_total") - w0; got != written {
			t.Errorf("daemon wrote %d frames, want %d", got, written)
		}
	}

	srv, addr, pages := serveQuotaFixture(t, server.Options{})
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := pagesOf(quota, 7)
	// The round, one request per quota and End; one frame per reply cut,
	// and the QueryDone.
	fetchQuery := func() {
		q := c.StartQuery()
		got, err := q.ReadFrames(ctx, []lbs.Frame{{NewRound: true}, {File: "F", Pages: want}, {File: "F", Pages: []int{39}}, {End: true}})
		if err != nil {
			t.Fatal(err)
		}
		check("fetch", got[1], want, pages)
		check("one-page fetch", got[2], []int{39}, pages)
		trace, err := q.End(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(trace, "  fetch F\n"); lines != quota+1 {
			t.Errorf("daemon recorded %d fetch lines, want %d:\n%s", lines, quota+1, trace)
		}
	}
	frames(srv, 4, replyFrames(quota, 1)+1, fetchQuery)
	refused := func(what string, err error, n int) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d items of F", n)) {
			t.Errorf("%s: err = %v, want a refusal naming F and %d items", what, err, n)
		}
	}
	big := pagesOf(fetchLimit+10, 3)
	frames(srv, 0, 0, func() {
		q := c.StartQuery()
		_, err := q.ReadFrames(ctx, []lbs.Frame{{NewRound: true}, {File: "F", Pages: big}})
		refused("fetch past the frame limit", err, len(big))
		q.Cancel(wire.CancelAbandon) // nothing was sent: a no-op on the wire
	})
	frames(srv, 4, replyFrames(quota, 1)+1, fetchQuery)

	rsrv, raddr, _ := serveQuotaFixture(t, server.Options{Stores: lbs.XORStores, ReplicaRole: true})
	rc, err := Dial(raddr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	shareQuery := func() {
		rq := rc.StartQuery()
		answers, err := rq.ReadShareFrames(ctx, []ShareFrame{{NewRound: true}, {File: "F", Sels: selsOf(want)}, {End: true}})
		if err != nil {
			t.Fatal(err)
		}
		check("share fetch", answers[1], want, pages)
		trace, err := rq.End(ctx)
		if err != nil {
			t.Fatal(fmt.Errorf("replica: %w", err))
		}
		if lines := strings.Count(trace, "  fetch F\n"); lines != quota {
			t.Errorf("replica recorded %d fetch lines, want %d", lines, quota)
		}
	}
	frames(rsrv, 3, replyFrames(quota)+1, shareQuery)
	bigSel := pagesOf(shareLimit+10, 3)
	frames(rsrv, 0, 0, func() {
		rq := rc.StartQuery()
		_, err := rq.ReadShareFrames(ctx, []ShareFrame{{NewRound: true}, {File: "F", Sels: selsOf(bigSel)}})
		refused("share fetch past the frame limit", err, len(bigSel))
		rq.Cancel(wire.CancelAbandon)
	})
	frames(rsrv, 3, replyFrames(quota)+1, shareQuery)
}

// TestLongTraceReadsPastTheRequestLimit: the request limit bounds only what
// the client writes. A query of 8 000 pages, each quota a conforming
// request under a 32 KiB limit, ends with a QueryDone trace of one line per
// page, past 32 KiB; End returns it, and the connection serves the next
// query.
func TestLongTraceReadsPastTheRequestLimit(t *testing.T) {
	defer func(old int) { maxFrame = old }(maxFrame)
	maxFrame = 32 << 10
	ctx := context.Background()
	_, addr, pages := serveQuotaFixture(t, server.Options{})
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	quota := make([]int, 4000)
	for i := range quota {
		quota[i] = i % 40
	}
	frames := []lbs.Frame{{NewRound: true}, {File: "F", Pages: quota}, {File: "F", Pages: quota}, {End: true}}
	for run := 0; run < 2; run++ {
		q := c.StartQuery()
		got, err := q.ReadFrames(ctx, frames)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !bytes.Equal(got[2][3999], pages[39]) {
			t.Fatalf("run %d: last answer is not page 39", run)
		}
		trace, err := q.End(ctx)
		if err != nil {
			t.Fatalf("run %d: End: %v", run, err)
		}
		if len(trace) <= maxFrame {
			t.Fatalf("run %d: trace of %d bytes does not pass the %d-byte request limit", run, len(trace), maxFrame)
		}
		if lines := strings.Count(trace, "  fetch F\n"); lines != 2*len(quota) {
			t.Fatalf("run %d: trace has %d fetch lines, want %d", run, lines, 2*len(quota))
		}
	}
}

// TestQueryIDsWrap: a connection's query IDs wrap past math.MaxUint32 to
// 1, skipping ControlID, and the daemon opens each wrapped query on its
// first frame: three plan queries from the top of the ID space all
// complete.
func TestQueryIDsWrap(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, addr, pages := serveQuotaFixture(t, server.Options{})
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.nextID = math.MaxUint32 - 1
	for i, id := range []uint32{math.MaxUint32, 1, 2} {
		q := c.StartQuery()
		got, err := q.ReadFrames(ctx, []lbs.Frame{{NewRound: true}, {File: "F", Pages: []int{i}}, {File: "F", Pages: []int{39}}, {End: true}})
		if err != nil {
			t.Fatalf("query %d (ID %d): %v", i, q.id, err)
		}
		if q.id != id {
			t.Errorf("query %d: ID %d, want %d", i, q.id, id)
		}
		if !bytes.Equal(got[1][0], pages[i]) || !bytes.Equal(got[2][0], pages[39]) {
			t.Errorf("query %d: wrong pages", i)
		}
		if _, err := q.End(ctx); err != nil {
			t.Fatalf("query %d: End: %v", i, err)
		}
	}
}
