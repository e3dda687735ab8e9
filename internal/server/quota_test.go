package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/plan"
	"repro/internal/scheme/af"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/hy"
	"repro/internal/scheme/lm"
	"repro/internal/scheme/pi"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// failingQuota answers selector shares like the XOR-PIR store it embeds,
// but fails every batch of exactly failShares shares, as a store whose
// read broke in the middle of a quota would.
type failingQuota struct{ *pir.XORPIR }

const failShares = 20

func (x failingQuota) AnswerShares(ctx context.Context, sels [][]byte, dst [][]byte) error {
	if len(sels) == failShares {
		return fmt.Errorf("share pass: %w", faultinject.ErrInjected)
	}
	return x.XORPIR.AnswerShares(ctx, sels, dst)
}

// quotaPlan is quotaFixture's plan: one page of A in round 1, three in
// round 2.
var quotaPlan = plan.Plan{Rounds: []plan.Round{{Fetches: []plan.Fetch{{File: "A", Count: 1}}}, {Fetches: []plan.Fetch{{File: "A", Count: 3}}}}}

// quotaFixture hosts file A, 60 numbered pages of 4 KB, under quotaPlan on
// a loopback daemon: a plain one whose every tenth page read fails with an
// injected EIO, or a replica whose store fails every 20-share quota.
func quotaFixture(t *testing.T, replica bool) (*Server, string, [][]byte) {
	t.Helper()
	pages := numberedPages(60, 4096)
	db := &lbs.Database{Scheme: "T", Header: []byte("quota fixture\n"), Files: []pagefile.Reader{pagefile.SlicePages("A", 4096, pages)}, Plan: quotaPlan}
	opts := Options{Stores: func(f pagefile.Reader) (pir.Store, error) {
		return pir.NewPlain(faultinject.New(faultinject.Config{EIOEvery: 10, Seed: 1}).Reader(f)), nil
	}}
	if replica {
		opts = Options{ReplicaRole: true, Stores: func(f pagefile.Reader) (pir.Store, error) {
			x, err := pir.NewXORPIR(f)
			return failingQuota{x}, err
		}}
	}
	srv := New(opts)
	if err := srv.Host("T", db, costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	done, addr := listen(t, srv)
	t.Cleanup(func() { shutdown(t, srv, done) })
	return srv, addr, pages
}

// shareOf is a one-bit selector over A: the share that answers page p.
func shareOf(p int) []byte {
	sel := make([]byte, 8)
	sel[p/8] = 1 << (p % 8)
	return sel
}

// TestRefusedQuotaGetsOneError: a request the daemon refuses — a page past
// the file's end, a selector of the wrong length, or a store that fails in
// the middle of the quota (an injected EIO on the tenth page read, a failed
// share pass) — gets exactly one Error frame in place of the Pages frames
// its quota's reply would be cut into, and that Error ends the query: the
// good request behind it gets no frame at all (a Ping sent after the Error
// is answered next). A client batch holding that quota returns the
// daemon's error without waiting for reply frames that never come; its
// pipelined EndQuery does not complete the query; and the next query on
// the same connection succeeds. On the Fetch path and the FetchShare path.
func TestRefusedQuotaGetsOneError(t *testing.T) {
	quota := make([]int, 20) // three reply frames at 7 pages of 4 KB
	for i := range quota {
		quota[i] = (i * 7) % 60
	}
	good := quota[:9] // two reply frames; no tenth read, so no injected EIO
	for _, path := range []struct {
		name     string
		replica  bool
		t        wire.MsgType
		refusals map[string][]byte // request payloads the daemon refuses, by why
		good     []byte
	}{
		{
			name: "Fetch", t: wire.MsgFetch,
			refusals: map[string][]byte{
				"out-of-range page": wire.Fetch{File: "A", Pages: []uint32{0, 1, 2, 3, 60, 5, 6, 7, 8, 9, 10, 11}}.Encode(),
				"EIO mid-quota":     wire.Fetch{File: "A", Pages: u32(quota)}.Encode(),
			},
			good: wire.Fetch{File: "A", Pages: u32(good)}.Encode(),
		},
		{
			name: "FetchShare", replica: true, t: wire.MsgFetchShare,
			refusals: map[string][]byte{
				"short selector":    wire.ShareFetch{File: "A", Sels: append(shares(good), []byte{1})}.Encode(),
				"failed share pass": wire.ShareFetch{File: "A", Sels: shares(quota)}.Encode(),
			},
			good: wire.ShareFetch{File: "A", Sels: shares(good)}.Encode(),
		},
	} {
		t.Run(path.name, func(t *testing.T) {
			for why, bad := range path.refusals {
				srv, addr, _ := quotaFixture(t, path.replica)
				conn, br := rawConn(t, addr)
				written := metricTotal(srv.Telemetry(), "privsp_server_frames_written_total")
				var batch bytes.Buffer
				wire.WriteFrame(&batch, path.t, 1, bad)
				wire.WriteFrame(&batch, path.t, 1, path.good)
				if _, err := conn.Write(batch.Bytes()); err != nil {
					t.Fatal(err)
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				if typ, qid, _, err := wire.ReadFrame(br, wire.DefaultMaxFrame); err != nil || typ != wire.MsgError || qid != 1 {
					t.Fatalf("%s: first reply %s for query %d, %v; want Error for query 1", why, typ, qid, err)
				}
				if err := wire.WriteFrame(conn, wire.MsgPing, wire.ControlID, nil); err != nil {
					t.Fatal(err)
				}
				if typ, qid, _, err := wire.ReadFrame(br, wire.DefaultMaxFrame); err != nil || typ != wire.MsgPong {
					t.Fatalf("%s: after the Error, %s for query %d, %v; want the Pong", why, typ, qid, err)
				}
				if got := metricTotal(srv.Telemetry(), "privsp_server_frames_written_total") - written; got != 2 {
					t.Errorf("%s: daemon wrote %d frames for the two requests and the Ping, want 2 (the Error and the Pong)", why, got)
				}
			}

			srv, addr, pages := quotaFixture(t, path.replica)
			c := dialDB(t, addr, "T")
			// One batch: the round, the quota and the query's end.
			read := func(ctx context.Context, q *client.Query, idx []int) ([][]byte, error) {
				if path.replica {
					got, err := q.ReadShareFrames(ctx, []client.ShareFrame{{NewRound: true}, {File: "A", Sels: shares(idx)}, {End: true}})
					if err != nil {
						return nil, err
					}
					return got[1], nil
				}
				got, err := q.ReadFrames(ctx, []lbs.Frame{{NewRound: true}, {File: "A", Pages: idx}, {End: true}})
				if err != nil {
					return nil, err
				}
				return got[1], nil
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			q := c.StartQuery()
			if _, err := read(ctx, q, quota); !client.IsServerReject(err) || !strings.Contains(err.Error(), "injected") {
				t.Fatalf("batch with a failing quota: err = %v, want the daemon's injected failure at once", err)
			}
			q.Cancel(wire.CancelAbandon) // a no-op: the Error ended the query
			q = c.StartQuery()
			got, err := read(ctx, q, good)
			if err != nil {
				t.Fatalf("next query on the connection: %v", err)
			}
			for i, p := range good {
				if !bytes.Equal(got[i], pages[p]) {
					t.Fatalf("next query: answer %d is not page %d", i, p)
				}
			}
			trace, err := q.End(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := "round 1:\n" + strings.Repeat("  fetch A\n", len(good)); trace != want {
				t.Errorf("next query's trace:\n%s\nwant:\n%s", trace, want)
			}
			settle(t, srv, "T")
			// The failed query's EndQuery never ran: the daemon ended that
			// query at the refusal, recording the round it announced, and
			// completed the second query alone.
			traces := srv.Traces("T")
			slices.Sort(traces)
			if len(traces) != 2 || traces[0] != "round 1:\n" || traces[1] != trace {
				t.Errorf("daemon recorded %q, want the failed query's round and the second query's trace", traces)
			}
			if n := metricTotal(srv.Telemetry(), "privsp_server_queries_total"); n != 1 {
				t.Errorf("daemon completed %d queries, want 1", n)
			}
		})
	}
}

// TestRefusedRequestEndsTheQuery: a refused request ends its query on the
// daemon. Of the raw batch NextRound, a refused request, NextRound, a good
// request, EndQuery, only the refusal is answered — one Error, after which
// a Ping's Pong is the next frame — and nothing behind it reaches a store
// (one batch observed) or is recorded: the audit ring holds "round 1:\n", a
// strict prefix of the plan's trace, counted as a query the daemon ended
// (reason="server"), not a completed one. The next query on the same
// connection completes with the canonical trace. On the Fetch path (a page
// past the file's end) and the FetchShare path (a short selector).
func TestRefusedRequestEndsTheQuery(t *testing.T) {
	for _, path := range []struct {
		name             string
		replica          bool
		t                wire.MsgType
		bad, first, good []byte
	}{
		{
			name: "Fetch", t: wire.MsgFetch,
			bad:   wire.Fetch{File: "A", Pages: []uint32{60}}.Encode(),
			first: wire.Fetch{File: "A", Pages: []uint32{0}}.Encode(),
			good:  wire.Fetch{File: "A", Pages: []uint32{1, 2, 3}}.Encode(),
		},
		{
			name: "FetchShare", replica: true, t: wire.MsgFetchShare,
			bad:   wire.ShareFetch{File: "A", Sels: [][]byte{{1}}}.Encode(),
			first: wire.ShareFetch{File: "A", Sels: shares([]int{0})}.Encode(),
			good:  wire.ShareFetch{File: "A", Sels: shares([]int{1, 2, 3})}.Encode(),
		},
	} {
		t.Run(path.name, func(t *testing.T) {
			srv, addr, pages := quotaFixture(t, path.replica)
			reg := srv.Telemetry()
			canonical := lbs.CanonicalTrace(quotaPlan)
			conn, br := rawConn(t, addr) // query 1 opens on its first frame
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			// send pipelines a query of the plan's shape: each round's
			// announcement and its one request, then the query's end.
			send := func(qid uint32, round1, round2 []byte) {
				t.Helper()
				var batch bytes.Buffer
				wire.WriteFrame(&batch, wire.MsgNextRound, qid, nil)
				wire.WriteFrame(&batch, path.t, qid, round1)
				wire.WriteFrame(&batch, wire.MsgNextRound, qid, nil)
				wire.WriteFrame(&batch, path.t, qid, round2)
				wire.WriteFrame(&batch, wire.MsgEndQuery, qid, nil)
				if _, err := conn.Write(batch.Bytes()); err != nil {
					t.Fatal(err)
				}
			}
			send(1, path.bad, path.good)
			if typ, qid, _, err := wire.ReadFrame(br, wire.DefaultMaxFrame); err != nil || typ != wire.MsgError || qid != 1 {
				t.Fatalf("first reply: %s for query %d, %v; want Error for query 1", typ, qid, err)
			}
			if err := wire.WriteFrame(conn, wire.MsgPing, wire.ControlID, nil); err != nil {
				t.Fatal(err)
			}
			if typ, qid, _, err := wire.ReadFrame(br, wire.DefaultMaxFrame); err != nil || typ != wire.MsgPong {
				t.Fatalf("after the Error: %s for query %d, %v; want the Pong", typ, qid, err)
			}
			settle(t, srv, "T")
			if n := metricTotal(reg, "privsp_server_fetch_batch_size"); n != 1 {
				t.Errorf("%d requests reached the store's batch, want the refused one alone", n)
			}
			traces := srv.Traces("T")
			if len(traces) != 1 || traces[0] != "round 1:\n" || !strings.HasPrefix(canonical, traces[0]) {
				t.Errorf("audit ring %q, want the refused query's prefix \"round 1:\\n\"", traces)
			}
			if n := metricTotal(reg, "privsp_server_queries_total"); n != 0 {
				t.Errorf("%d queries completed, want 0", n)
			}
			if n := metricTotal(reg, `privsp_server_query_cancelled_total{db="T",reason="server"}`); n != 1 {
				t.Errorf("%d queries ended by the daemon, want 1", n)
			}

			// The next query on the connection: no frame of query 1 arrives
			// among its replies, and it completes canonically.
			send(2, path.first, path.good)
			readPages(t, br, 2, "round 1", []int{0}, pages)
			readPages(t, br, 2, "round 2", []int{1, 2, 3}, pages)
			typ, qid, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
			if err != nil || typ != wire.MsgQueryDone || qid != 2 {
				t.Fatalf("end of the next query: %s for query %d, %v; want QueryDone for query 2", typ, qid, err)
			}
			if done, err := wire.DecodeQueryDone(payload); err != nil || done.Trace != canonical {
				t.Errorf("next query's trace %q (%v), want %q", done.Trace, err, canonical)
			}
		})
	}
}

func u32(idx []int) []uint32 {
	out := make([]uint32, len(idx))
	for i, p := range idx {
		out[i] = uint32(p)
	}
	return out
}

func shares(idx []int) [][]byte {
	out := make([][]byte, len(idx))
	for i, p := range idx {
		out[i] = shareOf(p)
	}
	return out
}

// readPages reads the Pages frames of query qid's reply to idx off br, cut
// as the daemon cuts it, and checks they hold idx's pages in order.
func readPages(t *testing.T, br *bufio.Reader, qid uint32, what string, idx []int, pages [][]byte) {
	t.Helper()
	cut := wire.ReplyCut("A", 4096)
	for lo := 0; lo < len(idx); lo += cut {
		typ, id, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil || typ != wire.MsgPages || id != qid {
			t.Fatalf("%s: reply frame %d: %s for query %d, %v; want Pages for query %d", what, lo/cut, typ, id, err, qid)
		}
		got, err := wire.DecodePages(payload)
		if err != nil {
			t.Fatal(err)
		}
		want := idx[lo:min(lo+cut, len(idx))]
		if len(got.Pages) != len(want) {
			t.Fatalf("%s: reply frame %d holds %d pages, want %d", what, lo/cut, len(got.Pages), len(want))
		}
		for i, p := range want {
			if !bytes.Equal(got.Pages[i], pages[p]) {
				t.Fatalf("%s: reply frame %d page %d is not page %d", what, lo/cut, i, p)
			}
		}
	}
}

var (
	wireOnce sync.Once
	wireG    *graph.Graph
	wireDBs  map[string]*lbs.Database
	wireErr  error
)

// wireFixture builds the five plan-following schemes over Oldenburg at
// scale 0.1.
func wireFixture(t *testing.T) (*graph.Graph, map[string]*lbs.Database) {
	t.Helper()
	wireOnce.Do(func() {
		g := gen.GeneratePreset(gen.Oldenburg, 0.1)
		builds := map[string]func(*graph.Graph, base.Config) (*lbs.Database, error){
			"CI": ci.Build, "PI": pi.Build, "HY": hy.Build, "LM": lm.Build, "AF": af.Build,
		}
		dbs := map[string]*lbs.Database{}
		for name, build := range builds {
			db, err := build(g, base.Config{})
			if err != nil {
				wireErr = fmt.Errorf("%s build: %w", name, err)
				return
			}
			dbs[name] = db
		}
		wireG, wireDBs = g, dbs
	})
	if wireErr != nil {
		t.Fatal(wireErr)
	}
	return wireG, wireDBs
}

// roundtrips reads how many batches the process's clients have waited on.
func roundtrips() uint64 {
	for _, row := range telemetry.Default().Snapshot() {
		if row.Key == "privsp_client_roundtrip_seconds" {
			return row.Hist.Count
		}
	}
	return 0
}

// wireShape is what one query put on the wire: the request frames the
// daemon read, the frames it wrote back, and the batches the client waited
// on.
type wireShape struct{ requests, replies, batches uint64 }

// queryShapes runs one query of every scheme on Oldenburg@0.1 over
// loopback and reports each one's wire shape, holding every daemon trace
// to the plan's canonical trace.
func queryShapes(t *testing.T) map[string]wireShape {
	t.Helper()
	g, dbs := wireFixture(t)
	srv := New(Options{})
	for _, s := range allSchemes {
		if err := srv.Host(s, dbs[s], costmodel.Default()); err != nil {
			t.Fatal(err)
		}
	}
	done, addr := listen(t, srv)
	defer shutdown(t, srv, done)
	ctx := context.Background()
	reg := srv.Telemetry()
	shapes := map[string]wireShape{}
	for _, s := range allSchemes {
		c, err := client.Dial(addr, client.Options{Database: s})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() // before the daemon's shutdown, so it has no session to drain
		read0, written0, batches0 := metricTotal(reg, "privsp_server_frames_read_total"), metricTotal(reg, "privsp_server_frames_written_total"), roundtrips()
		q := c.StartQuery()
		_, err = queryScheme(ctx, q, s, 3, graph.NodeID(g.NumNodes()-4), g)
		if err != nil && !errors.Is(err, base.ErrPlanOverflow) {
			t.Fatalf("%s: %v", s, err)
		}
		trace, err := q.End(ctx)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if trace != lbs.CanonicalTrace(dbs[s].Plan) {
			t.Errorf("%s: daemon trace deviates from the plan:\n%s", s, trace)
		}
		shapes[s] = wireShape{
			requests: metricTotal(reg, "privsp_server_frames_read_total") - read0,
			replies:  metricTotal(reg, "privsp_server_frames_written_total") - written0,
			batches:  roundtrips() - batches0,
		}
	}
	return shapes
}

// TestQueryFrameShapeOnTheWire: over loopback, each scheme's query sends
// one request frame per plan quota, one per round and an EndQuery — the
// first of them opens the query — and gets back per quota its reply cut —
// ⌈count / ReplyCut⌉ Pages frames — and one QueryDone. CI's shape on
// Oldenburg@0.1 (Fl:1 | Fi:1 | Fd:9) is pinned: 7 request frames, 5 reply
// frames.
func TestQueryFrameShapeOnTheWire(t *testing.T) {
	_, dbs := wireFixture(t)
	shapes := queryShapes(t)
	for _, s := range allSchemes {
		p := dbs[s].Plan
		var requests, replies uint64 = 1 + uint64(len(p.Rounds)), 1
		for _, r := range p.Rounds {
			for _, f := range r.Fetches {
				info := dbs[s].File(f.File)
				requests++
				replies += uint64(wire.ReplyFrames(f.File, info.PageSize(), f.Count))
			}
		}
		if got := shapes[s]; got.requests != requests || got.replies != replies {
			t.Errorf("%s: %d request and %d reply frames, want %d and %d", s, got.requests, got.replies, requests, replies)
		}
	}
	if got := shapes["CI"]; got.requests != 7 || got.replies != 5 {
		t.Errorf("CI: %d request and %d reply frames, pinned 7 and 5", got.requests, got.replies)
	}
}

// TestInboxHoldsOnePipelinedPlan: a query's inbox holds exactly the
// frames a conforming query pipelines — its plan's round announcements
// and nonzero quotas, and its EndQuery — so a client
// that sends the whole plan at once never blocks the connection reader.
// CI's on Oldenburg@0.1 (Fl:1 | Fi:1 | Fd:9) is pinned at 7.
func TestInboxHoldsOnePipelinedPlan(t *testing.T) {
	_, dbs := wireFixture(t)
	srv := New(Options{})
	for _, s := range allSchemes {
		if err := srv.Host(s, dbs[s], costmodel.Default()); err != nil {
			t.Fatal(err)
		}
		h, err := srv.lookup(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 + dbs[s].Plan.Requests(); h.inbox != want {
			t.Errorf("%s: inbox of %d frames, want %d", s, h.inbox, want)
		}
		if s == "CI" && h.inbox != 7 {
			t.Errorf("CI: inbox of %d frames, pinned 7", h.inbox)
		}
	}
}

// batchCounter is an in-process backend with the batch face that counts
// the batches a query hands it: the waits a query makes, but for End.
type batchCounter struct {
	*lbs.Server
	calls uint64
}

func (b *batchCounter) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, b) }

func (b *batchCounter) ReadFrames(ctx context.Context, frames []lbs.Frame) ([][][]byte, error) {
	b.calls++
	return lbs.ReadFrames(ctx, b.Server, frames)
}

// TestEndRidesTheLastBatch counts the batches a remote query waits on
// (privsp_client_roundtrip_seconds): the EndQuery rides the batch that
// sends the plan's last quota, so a query waits exactly as often as it
// hands the session's batches to a backend — CI and HY three times, PI
// twice, LM and AF as often as their search needs — where each waited once
// more for End.
func TestEndRidesTheLastBatch(t *testing.T) {
	g, dbs := wireFixture(t)
	shapes := queryShapes(t)
	pinned := map[string]uint64{"CI": 3, "PI": 2, "HY": 3}
	for _, s := range allSchemes {
		srv, err := lbs.NewServer(dbs[s], costmodel.Default(), nil)
		if err != nil {
			t.Fatal(err)
		}
		in := &batchCounter{Server: srv}
		if _, err := queryScheme(context.Background(), in, s, 3, graph.NodeID(g.NumNodes()-4), g); err != nil && !errors.Is(err, base.ErrPlanOverflow) {
			t.Fatalf("%s in process: %v", s, err)
		}
		if got := shapes[s].batches; got != in.calls {
			t.Errorf("%s: %d batches a remote query, want the %d it hands a backend", s, got, in.calls)
		}
		if want, ok := pinned[s]; ok && in.calls != want {
			t.Errorf("%s: %d batches a query, pinned %d", s, in.calls, want)
		}
	}
}
