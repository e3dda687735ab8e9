package server

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// startShedServer hosts CI with a tiny admission budget so a single parked
// query saturates the daemon.
func startShedServer(t *testing.T, maxInflight int) (*Server, string) {
	t.Helper()
	_, dbs := fixture(t)
	srv := New(Options{MaxInflight: maxInflight})
	if err := srv.Host("CI", dbs["CI"], costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	done, addr := listen(t, srv)
	t.Cleanup(func() { shutdown(t, srv, done) })
	return srv, addr
}

// TestAdmissionControlSheds: with the in-flight budget full, a new query
// is shed at its first frame, before any of its content is read — the
// client gets a
// typed Busy with a positive retry hint, the daemon records nothing about
// the query, readiness flips to false, and once the budget drains a
// retried query succeeds.
func TestAdmissionControlSheds(t *testing.T) {
	srv, addr := startShedServer(t, 1)
	c := dialDB(t, addr, "CI")
	ctx := context.Background()

	// Park one query: it holds the only admission slot until settled.
	blocker := c.StartQuery()
	if _, err := blocker.ReadPages(ctx, "Fd", []int{0}); err != nil {
		t.Fatal(err)
	}
	if srv.Ready() {
		t.Error("Ready() = true with the admission budget full")
	}

	attempt := c.StartQuery()
	_, err := attempt.ReadPages(ctx, "Fd", []int{0})
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("query against a full daemon: err = %v, want ErrBusy", err)
	}
	var be *client.BusyError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *client.BusyError", err)
	}
	if be.RetryAfter <= 0 || be.RetryAfter > time.Second {
		t.Errorf("RetryAfter = %v, want in (0, 1s]", be.RetryAfter)
	}
	// Settled by the Busy: a late Cancel must be a harmless no-op.
	attempt.Cancel(wire.CancelAbandon)

	if got := srv.m.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	// The daemon counts the Busy once its write returns, which can be just
	// after the client has read it.
	for deadline := time.Now().Add(time.Second); srv.m.busySent.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := srv.m.busySent.Value(); got != 1 {
		t.Errorf("busy-sent counter = %d, want 1", got)
	}
	// Shed before content: the daemon never opened the query, so nothing
	// about it reached the per-db accounting or the audit ring.
	reg := srv.Telemetry()
	if inflight, queries := metricGauge(reg, "privsp_server_queries_inflight"), metricTotal(reg, "privsp_server_queries_total"); inflight != 1 || queries != 0 {
		t.Errorf("after shed: in-flight %v queries %d, want 1 and 0", inflight, queries)
	}
	if traces := srv.Traces("CI"); len(traces) != 0 {
		t.Errorf("shed query left %d traces in the audit ring", len(traces))
	}

	// Drain: settle the blocker, readiness recovers, and a fresh retry of
	// the whole query goes through.
	blocker.Cancel(wire.CancelAbandon)
	waitFor(t, "readiness after drain", srv.Ready)
	retry := c.StartQuery()
	if _, err := retry.ReadPages(ctx, "Fd", []int{0}); err != nil {
		t.Fatalf("retried query after drain: %v", err)
	}
	if _, err := retry.End(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShedQueryFramesGoUnanswered: the Busy is a shed query's one reply —
// its first frame opens and sheds it, and the frames a client pipelined
// behind that one are dropped unanswered — and the first frame of the
// next query opens it, so it is shed with a Busy of its own.
func TestShedQueryFramesGoUnanswered(t *testing.T) {
	_, addr := startShedServer(t, 1)
	ctx := context.Background()
	blocker := dialDB(t, addr, "CI").StartQuery()
	if _, err := blocker.ReadPages(ctx, "Fd", []int{0}); err != nil {
		t.Fatal(err)
	}
	defer blocker.Cancel(wire.CancelAbandon)

	conn, br := rawConn(t, addr)
	fetch := wire.Fetch{File: "Fd", Pages: []uint32{0}}.Encode()
	for _, f := range []struct {
		t   wire.MsgType
		qid uint32
		p   []byte
	}{
		{wire.MsgNextRound, 1, nil},
		{wire.MsgFetch, 1, fetch},
		{wire.MsgFetch, 2, fetch}, // opens query 2
		{wire.MsgPing, wire.ControlID, nil},
	} {
		if err := wire.WriteFrame(conn, f.t, f.qid, f.p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []struct {
		t   wire.MsgType
		qid uint32
	}{{wire.MsgBusy, 1}, {wire.MsgBusy, 2}, {wire.MsgPong, wire.ControlID}} {
		typ, qid, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if typ != want.t || qid != want.qid {
			t.Fatalf("got %s for query %d, want %s for query %d", typ, qid, want.t, want.qid)
		}
		if typ == wire.MsgPong && len(payload) != 0 {
			t.Errorf("Pong carries %d bytes, want none", len(payload))
		}
	}
}

// TestShedBurstLeavesNothingAnswered: queries shed on one connection
// while the frames they pipelined arrive behind the first frames of every
// other — the order concurrent client queries can reach the daemon in —
// each get their one Busy and nothing more, however many there are, and
// none of them is left open.
func TestShedBurstLeavesNothingAnswered(t *testing.T) {
	const burst = 40
	srv, addr := startShedServer(t, 1)
	ctx := context.Background()
	blocker := dialDB(t, addr, "CI").StartQuery()
	if _, err := blocker.ReadPages(ctx, "Fd", []int{0}); err != nil {
		t.Fatal(err)
	}
	defer blocker.Cancel(wire.CancelAbandon)

	conn, br := rawConn(t, addr)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reg := srv.Telemetry()
	w0 := metricTotal(reg, "privsp_server_frames_written_total")
	fetch := wire.Fetch{File: "Fd", Pages: []uint32{0}}.Encode()
	var b bytes.Buffer
	for qid := uint32(1); qid <= burst; qid++ {
		wire.WriteFrame(&b, wire.MsgNextRound, qid, nil)
	}
	for qid := uint32(1); qid <= burst; qid++ {
		wire.WriteFrame(&b, wire.MsgFetch, qid, fetch)
	}
	wire.WriteFrame(&b, wire.MsgPing, wire.ControlID, nil)
	if _, err := conn.Write(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Frames are dispatched in order, and a shed query's Busy is written at
	// its dispatch, so the Pong comes after everything the burst drew.
	for i := uint32(1); i <= burst+1; i++ {
		typ, qid, _, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if i <= burst && (typ != wire.MsgBusy || qid != i) {
			t.Fatalf("reply %d: %s for query %d, want a Busy for query %d", i, typ, qid, i)
		}
		if i > burst && typ != wire.MsgPong {
			t.Fatalf("reply %d: %s for query %d, want the Pong", i, typ, qid)
		}
	}
	if n := metricTotal(reg, "privsp_server_frames_written_total") - w0; n != burst+1 {
		t.Errorf("daemon wrote %d frames, want %d: a Busy per query and the Pong", n, burst+1)
	}
	if got := metricGauge(reg, "privsp_server_queries_inflight"); got != 1 {
		t.Errorf("%v queries in flight, want 1: the blocker alone", got)
	}
}

// TestConcurrencyDefaults: the daemon's concurrency follows GOMAXPROCS
// alone — every hosted database's worker pool has 2×GOMAXPROCS slots, as
// its /metrics gauge reports, and the default admission budget opens
// 64×GOMAXPROCS queries and sheds the next. CI runs it under -cpu 1,2,4.
func TestConcurrencyDefaults(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	srv := New(Options{})
	db := &lbs.Database{
		Scheme: "T",
		Header: []byte{1},
		Files:  []pagefile.Reader{pagefile.SlicePages("F", 16, [][]byte{make([]byte, 16)})},
	}
	if err := srv.Host("T", db, costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	if got, want := metricGauge(srv.Telemetry(), `privsp_pool_workers{db="T"}`), float64(2*procs); got != want {
		t.Errorf("GOMAXPROCS %d: privsp_pool_workers = %v, want %v (2x GOMAXPROCS)", procs, got, want)
	}
	budget := 64 * procs
	for i := 0; i < budget; i++ {
		if !srv.admitQuery() {
			t.Fatalf("GOMAXPROCS %d: query %d shed, want a budget of %d (64x GOMAXPROCS)", procs, i+1, budget)
		}
	}
	if srv.Ready() || srv.admitQuery() {
		t.Errorf("GOMAXPROCS %d: query %d admitted past a budget of %d", procs, budget+1, budget)
	}
	for i := 0; i < budget; i++ {
		srv.releaseQuery()
	}
	if !srv.Ready() {
		t.Error("daemon not ready after every query was released")
	}
}

// TestAdmissionBudgetDefaults: a negative budget disables shedding
// entirely.
func TestAdmissionBudgetDefaults(t *testing.T) {
	unlimited := New(Options{MaxInflight: -1})
	for i := 0; i < 1000; i++ {
		if !unlimited.admitQuery() {
			t.Fatal("unlimited daemon shed a query")
		}
	}
	if !unlimited.Ready() {
		t.Error("unlimited daemon reports not ready")
	}
}

// TestTelemetryLeakageFreeShedding extends the leakage invariant to the
// overload path: shed attempts with the same shape but different src/dst
// endpoints must move every exported metric identically. The shed decision
// happens before any query content is read, so there is nothing
// endpoint-dependent for the counters to leak — this test pins that down
// as byte-identical registry deltas.
func TestTelemetryLeakageFreeShedding(t *testing.T) {
	g, _ := fixture(t)
	srv, addr := startShedServer(t, 1)
	reg := srv.Telemetry()
	ctx := context.Background()

	// The blocker lives on its own connection and keeps the budget full for
	// the whole test.
	cBlock := dialDB(t, addr, "CI")
	blocker := cBlock.StartQuery()
	if _, err := blocker.ReadPages(ctx, "Fd", []int{0}); err != nil {
		t.Fatal(err)
	}
	defer blocker.Cancel(wire.CancelAbandon)

	c := dialDB(t, addr, "CI")
	shedAttempt := func(s, d graph.NodeID) {
		t.Helper()
		qs := c.StartQuery()
		_, err := queryScheme(ctx, qs, "CI", s, d, g)
		if !errors.Is(err, client.ErrBusy) {
			t.Fatalf("query (%d,%d) against a full daemon: err = %v, want ErrBusy", s, d, err)
		}
		qs.Cancel(wire.CancelAbandon) // settled by the Busy; no-op
		// Sequencing barrier: server frames on one connection are processed
		// in order, so once the Pong arrives every frame of the shed
		// attempt — the requests that followed its first frame included,
		// which the daemon drops unanswered — has been fully read and
		// counted.
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Warmup: one shed attempt before measuring, so whatever a connection
	// does once is out of the deltas. No frame text embeds the query ID —
	// the shed query's later frames go unanswered — so the measured
	// attempts' IDs do not matter.
	shedAttempt(3, 4)

	queries := [][2]graph.NodeID{
		{0, graph.NodeID(g.NumNodes() - 1)}, // far apart
		{1, 2},                              // adjacent
		{5, 5},                              // degenerate s == d
	}
	deltas := make([]string, len(queries))
	for i, q := range queries {
		before := reg.Snapshot()
		shedAttempt(q[0], q[1])
		deltas[i] = telemetry.Delta(before, reg.Snapshot())
	}

	for _, want := range []string{"privsp_shed_total", "privsp_busy_sent_total"} {
		if !strings.Contains(deltas[0], want) {
			t.Errorf("shed delta does not move %s:\n%s", want, deltas[0])
		}
	}
	// The Busy is the shed query's one reply: the frames pipelined behind
	// its first frame are dropped unanswered, so the attempt writes the
	// Busy and the barrier's Pong and nothing else.
	if want := "privsp_server_frames_written_total +2\n"; !strings.Contains(deltas[0], want) {
		t.Errorf("shed attempt's delta does not write exactly 2 frames (the Busy and the Pong):\n%s", deltas[0])
	}
	for i := 1; i < len(deltas); i++ {
		if deltas[i] != deltas[0] {
			t.Errorf("shed attempts %v and %v produced different metric deltas — a side channel:\n--- %v ---\n%s\n--- %v ---\n%s",
				queries[0], queries[i], queries[0], deltas[0], queries[i], deltas[i])
		}
	}
}
