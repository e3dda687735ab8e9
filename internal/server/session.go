package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lbs"
	"repro/internal/wire"
)

// session is one client connection: a Hello/Welcome handshake binding it to
// a hosted database, then any number of concurrent query sessions
// multiplexed by the query ID every frame carries. The connection reader
// routes query frames to per-query goroutines and responses funnel back
// through a mutex-guarded writer, so a slow query never blocks an unrelated
// one on the same connection.
//
// Every query runs under its own context, derived from the connection's
// context, itself derived from the daemon's base context: a client CANCEL
// aborts one query, a dropped connection aborts that connection's queries,
// and daemon shutdown aborts everything — in each case freeing any worker
// the query's PIR reads are queued on.
//
// The trace recorder writes through lbs.Transcript, like the client's own
// record and lbs.CanonicalTrace, so the server-side view compares directly
// against the public plan and against the client's transcript. A query cancelled at
// a round boundary records a trace that is byte-identical to the first k
// rounds of a full query — a prefix, never a deviation (Theorem 1). A
// refused request ends its query the same way: its Error is the last reply.
type session struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex // serializes response frames from query goroutines
	bw  *bufio.Writer
	fw  *wire.FrameWriter // writes through bw; shares wmu

	ctx    context.Context
	cancel context.CancelFunc

	db *hosted

	qmu     sync.Mutex
	queries map[uint32]*query
	// high is the highest query ID the connection has opened, 0 before its
	// first: a client sends its queries' first frames in increasing ID
	// order, so a frame for a higher ID opens a query, and one for an ID
	// not open and not higher belongs to a query that is over. Guarded by
	// qmu.
	high uint32
	wg   sync.WaitGroup
}

// query is one in-flight query session on a connection.
type query struct {
	id     uint32
	ctx    context.Context
	cancel context.CancelFunc
	inbox  chan sframe

	// reason is the client's Cancel reason + 1; 0 means no client cancel
	// arrived (the abort, if any, was server-initiated). Written by the
	// connection reader, read by the query goroutine after its context
	// dies.
	reason atomic.Uint32

	// Owned by the query goroutine:
	start     time.Time
	round     int
	trace     lbs.Transcript
	fetched   uint64
	ended     bool // completed by EndQuery, and recorded
	unflushed bool // a reply of this query may sit in the write buffer
	fetch     fetchScratch

	// offPlan is set, under wmu, when the connection reader ended the query
	// for sending more frames than its plan has requests: its Error is
	// written, and no later reply of the query is.
	offPlan bool
}

// sframe is one routed client frame. payload is a buffer of the server's
// frame list; whoever finishes handling the frame gives it back
// (Server.putFrame).
type sframe struct {
	t       wire.MsgType
	payload []byte
}

func newSession(s *Server, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(s.baseCtx)
	ss := &session{
		s:       s,
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 64<<10),
		bw:      bufio.NewWriterSize(conn, 64<<10),
		ctx:     ctx,
		cancel:  cancel,
		queries: map[uint32]*query{},
	}
	ss.fw = wire.NewFrameWriter(ss.bw)
	return ss
}

// send writes one frame and flushes. Safe for concurrent use by the query
// goroutines.
func (ss *session) send(t wire.MsgType, qid uint32, payload []byte) error {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	if err := ss.writeLocked(t, qid, payload); err != nil {
		return err
	}
	return ss.bw.Flush()
}

func (ss *session) sendErr(qid uint32, format string, args ...any) error {
	return ss.send(wire.MsgError, qid, wire.ErrorMsg{Text: fmt.Sprintf(format, args...)}.Encode())
}

// writeLocked writes one frame into the buffer; the caller holds wmu.
func (ss *session) writeLocked(t wire.MsgType, qid uint32, payload []byte) error {
	if err := ss.fw.WriteFrame(t, qid, payload); err != nil {
		return err
	}
	ss.s.m.framesWritten.Inc()
	ss.s.m.bytesWritten.Add(uint64(len(payload)) + wire.FrameOverhead)
	return nil
}

// reply writes one of q's replies without flushing: runQuery flushes once
// q's inbox is empty, so a pipelined batch's replies leave together.
func (ss *session) reply(q *query, t wire.MsgType, payload []byte) {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	if !q.offPlan {
		ss.writeLocked(t, q.id, payload)
		q.unflushed = true
	}
}

// replyPages writes q's reply to a fetch of file straight from the page
// buffers, like reply without flushing: wire.ReplyFrames Pages frames of
// wire.ReplyCut pages each, the cut the client counts on, all under one
// hold of the write lock. The writes are what the encode histogram times.
func (ss *session) replyPages(q *query, file string, pages [][]byte) {
	c := wire.ReplyCut(file, len(pages[0]))
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	if q.offPlan {
		return
	}
	t0 := time.Now()
	for lo := 0; lo < len(pages); lo += c {
		n, err := ss.fw.WritePages(q.id, pages[lo:min(lo+c, len(pages))])
		if err != nil {
			return
		}
		ss.s.m.framesWritten.Inc()
		ss.s.m.bytesWritten.Add(uint64(n))
	}
	ss.db.m.encodeLat.Observe(int64(time.Since(t0)))
	q.unflushed = true
}

// refuse answers a request of q with one Error frame, in place of all of its
// reply frames, and reports q terminal: nothing of q after it reaches a
// store or is answered, and finishQuery records q's prefix trace.
func (ss *session) refuse(q *query, format string, args ...any) bool {
	ss.reply(q, wire.MsgError, wire.ErrorMsg{Text: fmt.Sprintf(format, args...)}.Encode())
	return true
}

// flush sends q's buffered replies, if any.
func (ss *session) flush(q *query) {
	if !q.unflushed {
		return
	}
	q.unflushed = false
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	ss.bw.Flush()
}

// run drives the session to completion. Transport errors end it; protocol
// errors are reported to the offending query and the session continues.
func (ss *session) run() {
	defer func() {
		// Abort whatever is still in flight (the client vanished or the
		// daemon is shutting down) and wait for the query goroutines so
		// their accounting settles before the connection counts as gone.
		ss.cancel()
		ss.wg.Wait()
	}()
	if err := ss.handshake(); err != nil {
		if err != io.EOF {
			ss.s.opts.Logf("privspd: %s: handshake: %v", ss.conn.RemoteAddr(), err)
		}
		return
	}
	fr := wire.NewFrameReader(ss.br)
	get := ss.s.frames.Get
	for {
		t, qid, payload, err := fr.ReadFrameInto(wire.DefaultMaxFrame, get)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				ss.s.opts.Logf("privspd: %s: read: %v", ss.conn.RemoteAddr(), err)
			}
			return
		}
		ss.s.m.framesRead.Inc()
		ss.s.m.bytesRead.Add(uint64(len(payload)) + wire.FrameOverhead)
		ss.dispatch(t, qid, payload)
	}
}

func (ss *session) handshake() error {
	t, _, payload, err := wire.ReadFrame(ss.br, wire.DefaultMaxFrame)
	if err != nil {
		return err
	}
	if t != wire.MsgHello {
		ss.sendErr(wire.ControlID, "expected Hello, got %s", t)
		return fmt.Errorf("expected Hello, got %s", t)
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		ss.sendErr(wire.ControlID, "%v", err)
		return err
	}
	if hello.Version != wire.ProtocolVersion {
		err := fmt.Errorf("protocol version %d not supported (want %d)", hello.Version, wire.ProtocolVersion)
		ss.sendErr(wire.ControlID, "%v", err)
		return err
	}
	// An empty name selects the sole database; against a multi-database
	// daemon it fails the handshake, naming the databases hosted.
	db, err := ss.s.lookup(hello.Database)
	if err != nil {
		ss.sendErr(wire.ControlID, "%v", err)
		return err
	}
	ss.db = db
	welcome := wire.Welcome{
		Scheme:   db.srv.Database().Scheme,
		Database: db.name,
		Files:    db.srv.Files(),
		Header:   db.srv.Database().Header,
	}
	if db.srv.ShareCapable() {
		welcome.Flags |= wire.WelcomeShareCapable
	}
	if ss.s.opts.ReplicaRole {
		welcome.Flags |= wire.WelcomeReplicaRole
	}
	return ss.send(wire.MsgWelcome, wire.ControlID, welcome.Encode())
}

// dispatch handles connection-level frames inline and routes query frames
// to their goroutine without ever waiting on one. A query opens on its
// first frame, one for an ID above every ID the connection opened before
// (serial-number order, so IDs may wrap): admission runs there, before any
// of the query's content is read, and a shed query's Busy is its one reply.
// A frame for any other query that is not open belongs to one that is
// over, and is dropped unanswered: the QueryDone, Busy or Error that ended
// the query was its last reply. A Cancel never opens a query. A frame that
// finds its query's inbox full ends that query off plan. payload is a
// buffer of the frame list: inline frames give it back here, routed frames
// hand it to the query goroutine.
func (ss *session) dispatch(t wire.MsgType, qid uint32, payload []byte) {
	switch t {
	case wire.MsgPing:
		if len(payload) != 0 {
			ss.sendErr(qid, "Ping carries %d bytes, want none", len(payload))
		} else {
			ss.send(wire.MsgPong, qid, nil)
		}
		ss.s.putFrame(payload)
		return
	case wire.MsgCancel:
		ss.cancelQuery(qid, payload)
		ss.s.putFrame(payload)
		return
	}
	if qid == wire.ControlID {
		ss.sendErr(qid, "query ID 0 is reserved for connection control")
		ss.s.putFrame(payload)
		return
	}
	ss.qmu.Lock()
	q := ss.queries[qid]
	opens := q == nil && (ss.high == 0 || int32(qid-ss.high) > 0)
	if opens {
		ss.high = qid
		q = ss.openQuery(qid)
	}
	ss.qmu.Unlock()
	if q == nil {
		if opens {
			ss.shed(qid)
		}
		ss.s.putFrame(payload)
		return
	}
	select {
	case q.inbox <- sframe{t, payload}:
	default:
		ss.s.putFrame(payload)
		ss.endOffPlan(q, t)
	}
}

// endOffPlan ends q, whose inbox a frame found full: the inbox holds every
// request of q's plan, so the client sent more. The connection reader ends
// q as a refusal would, without waiting on q's goroutine, which may be
// held in a store call: q leaves the session, so frames pipelined behind
// are dropped, its context is cancelled, and its one Error is written here
// as its last reply. The goroutine's finishQuery records the prefix trace
// and counts the end as the server's.
func (ss *session) endOffPlan(q *query, t wire.MsgType) {
	ss.qmu.Lock()
	open := ss.queries[q.id] == q
	if open {
		delete(ss.queries, q.id)
	}
	ss.qmu.Unlock()
	if !open {
		return // q's goroutine settled it first
	}
	q.cancel()
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	q.offPlan = true
	text := fmt.Sprintf("query %d sent %s past the %d requests of its plan", q.id, t, cap(q.inbox)-1)
	if ss.writeLocked(wire.MsgError, q.id, wire.ErrorMsg{Text: text}.Encode()) == nil {
		ss.bw.Flush()
	}
}

// openQuery opens the query session qid names and starts its goroutine,
// or returns nil when admission sheds it. The caller holds qmu.
func (ss *session) openQuery(qid uint32) *query {
	if !ss.s.admitQuery() {
		return nil
	}
	qctx, qcancel := context.WithCancel(ss.ctx)
	q := &query{id: qid, ctx: qctx, cancel: qcancel, inbox: make(chan sframe, ss.db.inbox), start: time.Now()}
	ss.queries[qid] = q
	ss.db.m.inflight.Inc()
	ss.wg.Add(1)
	go ss.runQuery(q)
	return q
}

// shed answers the first frame of a query admission refused with a Busy.
// The query never opens, so nothing about it — src, dst, even its target
// database's load — was read or recorded. The Busy hint depends on the
// in-flight counter alone.
func (ss *session) shed(qid uint32) {
	ss.s.m.shed.Inc()
	hint := uint32(ss.s.retryAfterHint() / time.Millisecond)
	if ss.send(wire.MsgBusy, qid, wire.Busy{RetryAfterMillis: hint}.Encode()) == nil {
		ss.s.m.busySent.Inc()
	}
}

// cancelQuery handles a client CANCEL: it cancels the query's context —
// aborting any PIR read still queued on the worker pool — and leaves the
// accounting to the query goroutine's finish path. Cancel of an unknown
// (already finished) query is a no-op, since completion raced the cancel.
func (ss *session) cancelQuery(qid uint32, payload []byte) {
	m, err := wire.DecodeCancel(payload)
	if err != nil {
		m.Reason = wire.CancelAbandon
	}
	ss.qmu.Lock()
	q := ss.queries[qid]
	ss.qmu.Unlock()
	if q == nil {
		return
	}
	q.reason.Store(uint32(m.Reason) + 1)
	q.cancel()
}

// runQuery is one query's serving loop: frames arrive in client send order
// through the inbox, the context aborts it between frames or mid-read.
// Replies are flushed whenever the inbox runs empty — after a pipelined
// batch's last frame, not after each — and never left buffered while the
// loop waits.
func (ss *session) runQuery(q *query) {
	defer ss.wg.Done()
	defer ss.finishQuery(q)
	defer ss.flush(q)
	for {
		select {
		case <-q.ctx.Done():
			return
		case f := <-q.inbox:
			terminal := ss.handleQueryFrame(q, f)
			ss.s.putFrame(f.payload)
			if terminal {
				return
			}
			if len(q.inbox) == 0 {
				ss.flush(q)
			}
		}
	}
}

// handleQueryFrame serves one frame of an open query. It reports whether
// the query reached a terminal state (completed, refused, or aborted
// mid-read).
func (ss *session) handleQueryFrame(q *query, f sframe) bool {
	switch f.t {
	case wire.MsgNextRound:
		// Fire-and-forget: no reply; it rides in front of the round's
		// first fetch, or with the rest of a pipelined batch.
		q.round++
		ss.db.m.rounds.Inc()
		q.trace.Round(q.round)
		return false

	case wire.MsgFetch, wire.MsgFetchShare:
		if f.t == wire.MsgFetch && ss.s.opts.ReplicaRole {
			// A replica never reconstructs: it answers selector shares only,
			// so this process cannot hold both halves of any query.
			return ss.refuse(q, "replica serves selector shares only (send FetchShare, not Fetch)")
		}
		defer q.fetch.release(&ss.s.pages)
		// A FetchShare's selectors alias the frame buffer, which stays
		// the query's until the answer is written (runQuery gives it back
		// after this).
		file, pages, err := ss.s.answerFetch(q.ctx, ss.db, f.t, f.payload, &q.fetch)
		if err != nil {
			if q.ctx.Err() != nil {
				// Cancelled while the call was queued or between its page
				// reads: nothing of this fetch is recorded, so the trace
				// stays a prefix of a full query's.
				return true
			}
			return ss.refuse(q, "%v", err)
		}
		// The adversarial view: file name and count only. The page indices
		// model a PIR-encrypted request and are never recorded; a share
		// fetch's selector bits are each replica's whole view of the PIR
		// query and are uniformly random by construction.
		q.trace.Fetch(file, len(pages))
		q.fetched += uint64(len(pages))
		ss.replyPages(q, file, pages)
		return false

	case wire.MsgEndQuery:
		tr := q.trace.String()
		q.ended = true
		ss.db.addTrace(tr)
		ss.db.m.queries.Inc()
		ss.db.m.pages.Add(q.fetched)
		ss.db.m.queryLat.Observe(int64(time.Since(q.start)))
		ss.reply(q, wire.MsgQueryDone, wire.QueryDone{Trace: tr}.Encode())
		return true

	default:
		return ss.refuse(q, "unexpected message %s", f.t)
	}
}

// finishQuery settles a query exactly once, whatever ended it. A completed
// query was already recorded by EndQuery. A client CANCEL records the
// partial trace — it is what the adversary saw, and it is always a prefix
// of the full-query trace — and moves the matching counter; CancelAbandon
// (a query that broke client-side) is discarded unrecorded. Any other end
// is the daemon's own — a refused request, frames past the plan, shutdown,
// or the connection gone: it records the trace too, a strict prefix since
// a refused or aborted fetch is never recorded. A refused or off-plan
// query's Error is already written; one its context aborted otherwise
// (shutdown) is told with a best-effort Error instead of being left
// waiting.
func (ss *session) finishQuery(q *query) {
	aborted := q.ctx.Err() != nil
	q.cancel()
	reason := q.reason.Load()
	ss.qmu.Lock()
	offPlan := ss.queries[q.id] != q // endOffPlan took q out already
	if !offPlan {
		delete(ss.queries, q.id)
	}
	ss.qmu.Unlock()
	switch {
	case q.ended:
	case reason == uint32(wire.CancelContext)+1:
		ss.db.addTrace(q.trace.String())
		ss.db.m.cancelCtx.Inc()
	case reason == uint32(wire.CancelDeadline)+1:
		ss.db.addTrace(q.trace.String())
		ss.db.m.cancelDeadline.Inc()
	case reason != 0:
		// CancelAbandon, or a reason this daemon does not know: only the
		// reason counter moves.
		ss.db.m.cancelAbandon.Inc()
	default:
		ss.db.addTrace(q.trace.String())
		ss.db.m.cancelServer.Inc()
		if aborted && !offPlan {
			ss.sendErr(q.id, "query cancelled: server shutting down")
		}
	}
	ss.s.releaseQuery()
	ss.db.m.inflight.Dec()
}
