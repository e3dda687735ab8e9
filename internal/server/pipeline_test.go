package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/plan"
	"repro/internal/wire"
)

// gateStore holds every read of one page until open is closed, and says on
// entered when the first such read arrives.
type gateStore struct {
	pir.Store
	page    int
	entered chan struct{}
	open    chan struct{}
}

func (s gateStore) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	if slices.Contains(pages, s.page) {
		select {
		case s.entered <- struct{}{}:
		default:
		}
		select {
		case <-s.open:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return s.Store.ReadBatchInto(ctx, pages, dst)
}

// numberedPages builds n pages of size bytes whose first four bytes are
// the page's number.
func numberedPages(n, size int) [][]byte {
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, size)
		copy(pages[i], fmt.Sprintf("%04d", i))
	}
	return pages
}

// TestPipelinedBatchSharesTheConnection: one query pipelines a batch of 97
// frames — a round announcement and its 96 one-page quotas — whose fourth
// read is held at the store, while a second query on the same connection
// runs from its first round to End. The second query completes while the first one's
// batch still waits (the daemon's connection reader never blocks on the
// first query's inbox), and once released, every reply of the batch
// arrives, in order.
func TestPipelinedBatchSharesTheConnection(t *testing.T) {
	const frames = 96
	db := &lbs.Database{
		Scheme: "T",
		Header: []byte("pipelining fixture\n"),
		Files: []pagefile.Reader{
			pagefile.SlicePages("A", 64, numberedPages(frames, 64)),
			pagefile.SlicePages("B", 64, numberedPages(4, 64)),
		},
		Plan: plan.Plan{Rounds: []plan.Round{{Fetches: slices.Repeat([]plan.Fetch{{File: "A", Count: 1}}, frames)}}},
	}
	gate := gateStore{page: 3, entered: make(chan struct{}, 1), open: make(chan struct{})}
	srv := New(Options{Stores: func(f pagefile.Reader) (pir.Store, error) {
		if f.Name() == "A" {
			g := gate
			g.Store = pir.NewPlain(f)
			return g, nil
		}
		return pir.NewPlain(f), nil
	}})
	if err := srv.Host("T", db, costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	done, addr := listen(t, srv)
	defer shutdown(t, srv, done)
	c := dialDB(t, addr, "T")
	defer c.Close() // before shutdown, which would wait out its drain deadline
	ctx := context.Background()

	q1 := c.StartQuery()
	batch := []lbs.Frame{{NewRound: true}}
	for i := range frames {
		batch = append(batch, lbs.Frame{File: "A", Pages: []int{i}})
	}
	type reply struct {
		pages [][][]byte
		err   error
	}
	replied := make(chan reply, 1)
	go func() {
		out, err := q1.ReadFrames(ctx, batch)
		replied <- reply{out, err}
	}()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the gated read never reached the store")
	}

	// Everything of q1's batch was written before the gated read began, so
	// the connection reader meets all of it before any frame of q2.
	ctx2, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	q2 := c.StartQuery()
	got, err := q2.ReadFrames(ctx2, []lbs.Frame{{NewRound: true}, {File: "B", Pages: []int{2, 0}}, {File: "B", Pages: []int{3}}})
	if err != nil {
		t.Fatalf("second query's batch behind a held batch: %v", err)
	}
	for i, want := range [][]string{nil, {"0002", "0000"}, {"0003"}} {
		for j, w := range want {
			if string(got[i][j][:4]) != w {
				t.Errorf("second query, frame %d page %d: got %q, want %q", i, j, got[i][j][:4], w)
			}
		}
	}
	if _, err := q2.End(ctx2); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-replied:
		t.Fatalf("the held batch returned early: %v", r.err)
	default:
	}

	close(gate.open)
	r := <-replied
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.pages) != len(batch) || r.pages[0] != nil {
		t.Fatalf("got %d replies (first %v), want %d with none for the announcement", len(r.pages), r.pages[0], len(batch))
	}
	for i, pages := range r.pages[1:] {
		if len(pages) != 1 || string(pages[0][:4]) != fmt.Sprintf("%04d", i) {
			t.Fatalf("reply %d out of order or wrong: %q", i+1, pages)
		}
	}
	trace, err := q1.End(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if trace != lbs.CanonicalTrace(db.Plan) {
		t.Errorf("daemon trace of the batch:\n%s", trace)
	}
}

// TestBatchRefusalEndsTheQuery: the daemon refuses one read in the middle
// of a batch (a page past the file's end). Its Error is the query's last
// reply: the batch returns that error, and so does every later call on the
// query, while Cancel is a no-op. The next query on the connection
// succeeds.
func TestBatchRefusalEndsTheQuery(t *testing.T) {
	g, dbs := fixture(t)
	_, addr := startServer(t, "CI")
	c := dialDB(t, addr, "CI")
	ctx := context.Background()
	fd := dbs["CI"].File("Fd")

	q := c.StartQuery()
	batch := []lbs.Frame{{NewRound: true}, {File: "Fd", Pages: []int{0}}, {File: "Fd", Pages: []int{1}},
		{File: "Fd", Pages: []int{fd.NumPages()}}, {File: "Fd", Pages: []int{2}}, {File: "Fd", Pages: []int{3}}}
	_, err := q.ReadFrames(ctx, batch)
	if !client.IsServerReject(err) || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("batch with a page past the end: err = %v, want the daemon's out-of-range rejection", err)
	}
	if _, again := q.ReadPages(ctx, "Fd", []int{5}); again == nil || again.Error() != err.Error() {
		t.Fatalf("read after the refused batch: err = %v, want the refusal again", again)
	}
	if _, again := q.End(ctx); again == nil || again.Error() != err.Error() {
		t.Fatalf("End after the refused batch: err = %v, want the refusal again", again)
	}
	q.Cancel(wire.CancelAbandon)

	res, trace, err := remoteQuery(c, "CI", 1, 2, g)
	if err != nil {
		t.Fatalf("next query on the connection: %v", err)
	}
	if want := graph.ShortestPath(g, 1, 2); math.Abs(res.Cost-want.Cost) > 1e-9 {
		t.Errorf("next query: cost %v, Dijkstra %v", res.Cost, want.Cost)
	}
	if trace != lbs.CanonicalTrace(dbs["CI"].Plan) {
		t.Error("next query: daemon trace deviates from the plan")
	}
}

// holdStore holds every read until release is closed, whatever the read's
// context says, as a page read already under way runs to completion, and
// says on entered when the first read arrives.
type holdStore struct {
	pir.Store
	entered chan struct{}
	release chan struct{}
}

func (s holdStore) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	return s.Store.ReadBatchInto(ctx, pages, dst)
}

// TestOffPlanFrameEndsTheQuery: query 1 sends more frames than its plan
// has requests while its first read is held in the store, so a frame finds
// its inbox full. The connection reader does not wait on query 1: it ends
// it with one Error, its last reply, drops the frames pipelined behind,
// and query 2 on the same connection runs to End while query 1's read is
// still held. Once released, query 1's goroutine writes nothing more and
// records its prefix trace, and its end is counted as the server's.
func TestOffPlanFrameEndsTheQuery(t *testing.T) {
	pagesB := numberedPages(4, 64)
	db := &lbs.Database{
		Scheme: "T",
		Header: []byte("off-plan fixture\n"),
		Files: []pagefile.Reader{
			pagefile.SlicePages("A", 64, numberedPages(16, 64)),
			pagefile.SlicePages("B", 64, pagesB),
		},
		Plan: plan.Plan{Rounds: []plan.Round{{Fetches: []plan.Fetch{{File: "A", Count: 2}, {File: "B", Count: 2}}}}},
	}
	hold := holdStore{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := New(Options{Stores: func(f pagefile.Reader) (pir.Store, error) {
		if f.Name() == "A" {
			h := hold
			h.Store = pir.NewPlain(f)
			return h, nil
		}
		return pir.NewPlain(f), nil
	}})
	if err := srv.Host("T", db, costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	done, addr := listen(t, srv)
	defer shutdown(t, srv, done)
	var once sync.Once
	release := func() { once.Do(func() { close(hold.release) }) }
	defer release()
	reg := srv.Telemetry()
	conn, br := rawConn(t, addr) // query 1 opens on its first frame
	defer conn.Close()           // before shutdown, which would wait out its drain deadline
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	w0 := metricTotal(reg, "privsp_server_frames_written_total")
	write := func(frames ...func(*bytes.Buffer)) {
		t.Helper()
		var b bytes.Buffer
		for _, f := range frames {
			f(&b)
		}
		if _, err := conn.Write(b.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	frame := func(typ wire.MsgType, qid uint32, payload []byte) func(*bytes.Buffer) {
		return func(b *bytes.Buffer) { wire.WriteFrame(b, typ, qid, payload) }
	}
	fetch := func(qid uint32, file string, idx ...int) func(*bytes.Buffer) {
		return frame(wire.MsgFetch, qid, wire.Fetch{File: file, Pages: u32(idx)}.Encode())
	}

	write(frame(wire.MsgNextRound, 1, nil), fetch(1, "A", 0))
	select {
	case <-hold.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query 1's first read never reached the store")
	}
	// The plan has 3 requests, so the inbox holds 4 frames: the fifth read
	// behind the held one is off plan, and two more ride behind it.
	var over []func(*bytes.Buffer)
	for i := 1; i <= 7; i++ {
		over = append(over, fetch(1, "A", i))
	}
	write(over...)
	write(frame(wire.MsgNextRound, 2, nil), fetch(2, "B", 2, 0), frame(wire.MsgEndQuery, 2, nil))

	var errs, pagesSeen, doneSeen int
	for range 3 {
		typ, qid, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			t.Fatalf("while query 1's read is held: %v (query 1 errors %d, query 2 pages %d, done %d)", err, errs, pagesSeen, doneSeen)
		}
		switch {
		case typ == wire.MsgError && qid == 1:
			errs++
			em, _ := wire.DecodeErrorMsg(payload)
			if !strings.Contains(em.Text, "plan") || strings.Contains(em.Text, "server shutting down") {
				t.Errorf("query 1's Error %q, want an off-plan refusal", em.Text)
			}
		case typ == wire.MsgPages && qid == 2:
			pagesSeen++
			got, err := wire.DecodePages(payload)
			if err != nil || len(got.Pages) != 2 || !bytes.Equal(got.Pages[0], pagesB[2]) || !bytes.Equal(got.Pages[1], pagesB[0]) {
				t.Errorf("query 2's Pages: %v, want pages 2 and 0 of B", err)
			}
		case typ == wire.MsgQueryDone && qid == 2:
			doneSeen++
		default:
			t.Fatalf("unexpected %s for query %d", typ, qid)
		}
	}
	if errs != 1 || pagesSeen != 1 || doneSeen != 1 {
		t.Fatalf("query 1 errors %d, query 2 pages %d, done %d; want 1 each", errs, pagesSeen, doneSeen)
	}

	// Released, query 1 writes nothing: a Ping's Pong is the next frame.
	release()
	settle(t, srv, "T")
	write(frame(wire.MsgPing, wire.ControlID, nil))
	if typ, qid, _, err := wire.ReadFrame(br, wire.DefaultMaxFrame); err != nil || typ != wire.MsgPong {
		t.Fatalf("after the release: %s for query %d, %v; want the Pong", typ, qid, err)
	}
	if n := metricTotal(reg, "privsp_server_frames_written_total") - w0; n != 4 {
		t.Errorf("daemon wrote %d frames, want 4: the Error, query 2's Pages and QueryDone, the Pong", n)
	}
	if n := metricTotal(reg, `privsp_server_query_cancelled_total{db="T",reason="server"}`); n != 1 {
		t.Errorf("%d queries ended by the daemon, want 1", n)
	}
	if n := metricTotal(reg, "privsp_server_queries_total"); n != 1 {
		t.Errorf("%d queries completed, want 1", n)
	}
	if traces := srv.Traces("T"); !slices.Contains(traces, "round 1:\n") {
		t.Errorf("audit ring %q lacks query 1's prefix trace", traces)
	}
}
