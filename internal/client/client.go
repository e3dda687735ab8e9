// Package client is the remote side of the networked LBS: it speaks the
// internal/wire protocol to a privspd daemon. One Client is one TCP
// connection multiplexing any number of concurrent query sessions: every
// frame carries a query ID, a reader goroutine routes responses back to the
// query that asked, and writes interleave under a single lock. Each query
// session (StartQuery) implements lbs.Service, so the exact same scheme
// protocol code that drives an in-process lbs.Server drives a daemon across
// the network — now many queries at a time over one connection, the daemon
// executing their batched PIR reads in parallel on its per-database worker
// pools.
//
// Cancellation is first-class: a query whose context dies stops waiting
// immediately, and Cancel ships a CANCEL frame so the daemon aborts the
// server-side work (frees the pool slot it is queued on) instead of
// finishing a read nobody wants. A Busy or an Error from the daemon is a
// query's last reply: it settles the query on both sides.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/wire"
)

// DefaultDialTimeout bounds Dial's TCP connect plus protocol handshake when
// the caller's context carries no deadline of its own: a daemon that
// accepts the TCP connection but never answers the Hello must fail the
// dial, not hang it.
const DefaultDialTimeout = 10 * time.Second

// dialTimeout is the connect and handshake budget a dial applies:
// DefaultDialTimeout, which tests lower to drive a dial past it.
var dialTimeout = DefaultDialTimeout

// Options tunes a connection.
type Options struct {
	// Database selects a hosted database by name; empty selects the
	// daemon's sole database.
	Database string
}

// maxFrame is the largest request payload a client writes: a request past
// it is refused before any frame of its batch is written. Tests lower it
// before dialing to drive the refusal. Replies are read at
// wire.DefaultMaxFrame, the limit the daemon reads requests with, so a
// lowered maxFrame never fails a connection on a long QueryDone trace.
var maxFrame = wire.DefaultMaxFrame

// replies is the free list every connection of the process reads its reply
// frames into: a frame's payload is the best-fitting listed buffer, or a
// new one, and the query that takes it gives it back once it is settled
// (Query.End, Query.Cancel). One bounded list per process, rather than one
// per connection, keeps what the list retains — live heap, which raises
// the collector's goal and the resident set — independent of how many
// connections are open.
var replies pagefile.PageList

// poisonRecycled makes every buffer given back to replies read as
// poisonByte, so a query that still reads a page after its End or Cancel
// decodes garbage. Tests set it before dialing; a Client takes its value
// at dial time.
var poisonRecycled = false

// poisonByte is what a recycled buffer reads as while poisonRecycled holds.
const poisonByte = 0xA5

// frame is one routed server frame.
type frame struct {
	t       wire.MsgType
	payload []byte
}

// Client is a connection to a privspd daemon, bound to one database by the
// Hello/Welcome handshake. Safe for concurrent use: start one Query per
// in-flight query, from any goroutine.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes and flushes
	bw  *bufio.Writer
	fw  *wire.FrameWriter // writes through bw; shares wmu

	// Immutable after the handshake.
	scheme   string
	database string
	flags    uint16
	files    map[string]lbs.FileInfo
	order    []lbs.FileInfo // Welcome file table, in database order
	header   []byte         // the bound database's public header
	addr     string
	maxFrame int  // maxFrame as the client was dialed
	poison   bool // poisonRecycled as the client was dialed

	ctlMu sync.Mutex // serializes Ping/Pong pairs

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan frame // open queries, keyed by query ID
	ctl     chan frame            // ControlID responses (Pong)
	done    chan struct{}         // closed once on fatal failure; wakes all waiters
	err     error                 // fatal transport error; latched
}

// Dial connects with the default timeout. Equivalent to DialContext with a
// background context: the connect and handshake are still bounded by
// DefaultDialTimeout, so an unresponsive address fails instead of blocking
// forever.
func Dial(addr string, opts Options) (*Client, error) {
	return DialContext(context.Background(), addr, opts)
}

// DialContext connects and performs the handshake under ctx. The context
// governs the TCP connect and the Hello/Welcome exchange; the effective
// budget is the SOONER of the caller's deadline and DefaultDialTimeout — a
// 50 ms caller deadline fails the dial in 50 ms, never the 10 s default,
// and a caller deadline hours away still cannot hang the handshake past
// the default. A daemon that accepts the connection but never completes the
// handshake fails the dial when that budget expires.
func DialContext(ctx context.Context, addr string, opts Options) (*Client, error) {
	// WithTimeout never loosens an earlier deadline already on ctx, so this
	// is min(caller deadline, the default) — not the default layered on top.
	ctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	// The handshake reads below must abort when ctx dies: poison the
	// connection deadline from the context for the duration.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		pending: map[uint32]chan frame{},
		ctl:     make(chan frame, 8),
		done:    make(chan struct{}),
	}
	c.fw = wire.NewFrameWriter(c.bw)
	br := bufio.NewReaderSize(conn, 64<<10)
	w, err := handshake(br, c.bw, opts)
	if !stop() && err == nil {
		// The deadline-poisoning AfterFunc already started: it may run
		// after the reset below and poison a connection we reported as
		// healthy. The context is dead anyway — fail the dial.
		err = ctx.Err()
	}
	if err != nil {
		conn.Close()
		if ctx.Err() != nil {
			return nil, fmt.Errorf("client: dial %s: %w", addr, ctx.Err())
		}
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	c.scheme = w.Scheme
	c.database = w.Database
	c.flags = w.Flags
	c.header = w.Header
	c.addr = addr
	c.maxFrame = maxFrame
	c.poison = poisonRecycled
	c.order = w.Files
	c.files = make(map[string]lbs.FileInfo, len(w.Files))
	for _, f := range w.Files {
		c.files[f.Name] = f
	}
	go c.readLoop(wire.NewFrameReader(br))
	mConnects.Inc()
	return c, nil
}

// handshake runs the Hello/Welcome exchange on the raw buffered stream,
// before the reader goroutine exists.
func handshake(br *bufio.Reader, bw *bufio.Writer, opts Options) (wire.Welcome, error) {
	hello := wire.Hello{Version: wire.ProtocolVersion, Database: opts.Database}
	if err := wire.WriteFrame(bw, wire.MsgHello, wire.ControlID, hello.Encode()); err != nil {
		return wire.Welcome{}, fmt.Errorf("client: write Hello: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return wire.Welcome{}, fmt.Errorf("client: write Hello: %w", err)
	}
	t, _, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil {
		return wire.Welcome{}, fmt.Errorf("client: read: %w", err)
	}
	switch t {
	case wire.MsgError:
		if em, derr := wire.DecodeErrorMsg(payload); derr == nil {
			return wire.Welcome{}, &serverError{text: em.Text}
		}
		return wire.Welcome{}, errors.New("client: server reported an undecodable error")
	case wire.MsgWelcome:
		return wire.DecodeWelcome(payload)
	default:
		return wire.Welcome{}, fmt.Errorf("client: expected Welcome, got %s", t)
	}
}

// Scheme returns the hosted database's scheme name.
func (c *Client) Scheme() string { return c.scheme }

// Database returns the name the daemon resolved the Hello to.
func (c *Client) Database() string { return c.database }

// Addr returns the address this client dialed.
func (c *Client) Addr() string { return c.addr }

// ShareCapable reports whether the daemon can answer XOR PIR selector
// shares on every hosted file (Welcome capability flag).
func (c *Client) ShareCapable() bool { return c.flags&wire.WelcomeShareCapable != 0 }

// Files returns the daemon's public file table, in database order.
func (c *Client) Files() []lbs.FileInfo { return c.order }

// FileInfo answers from the Welcome's public file table.
func (c *Client) FileInfo(name string) (lbs.FileInfo, error) {
	info, ok := c.files[name]
	if !ok {
		return lbs.FileInfo{}, fmt.Errorf("client: no such file %q", name)
	}
	return info, nil
}

// Header returns the bound database's public header, as the Welcome
// carried it.
func (c *Client) Header() []byte { return c.header }

// Close tears the connection down: every in-flight query fails promptly.
func (c *Client) Close() error {
	c.fail(errors.New("client: closed"))
	return nil
}

// fail latches a fatal transport error, closes the socket, and wakes every
// waiter by closing the done channel. The per-query frame channels are
// never closed — the reader may be concurrently sending on one — waiters
// select on done instead. Idempotent: the first error wins.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.err = err
	c.conn.Close()
	close(c.done)
}

// lastErr reports the latched fatal error; c.done is closed.
func (c *Client) lastErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// release forgets a query: frames addressed to it are dropped from now on.
func (c *Client) release(id uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, id)
}

// readLoop routes every incoming frame to the query (or control waiter) it
// is addressed to. Frames for finished queries — a reply overtaken by a
// cancellation — are dropped, which is precisely what keying by query ID
// buys: no stream position to desynchronize. Each payload is read into a
// buffer of exactly its size from the process's reply list, and handed to
// its query, which keeps the pages it decodes from it and gives the buffer
// back when it is settled; a dropped frame's buffer goes back at once.
func (c *Client) readLoop(fr *wire.FrameReader) {
	for {
		t, qid, payload, err := fr.ReadFrameInto(wire.DefaultMaxFrame, replies.Get)
		if err != nil {
			c.fail(fmt.Errorf("client: read: %w", err))
			return
		}
		c.mu.Lock()
		var ch chan frame
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		if qid == wire.ControlID {
			ch = c.ctl
		} else {
			ch = c.pending[qid]
		}
		c.mu.Unlock()
		if ch == nil {
			c.recycle(payload) // finished or cancelled query: drop
			continue
		}
		// The channel is never closed (see fail), so this send cannot
		// panic even if the query is released concurrently. It holds a
		// whole batch's replies (Query.batch sizes it before writing), so
		// it is full only when the daemon answers more than was asked.
		select {
		case ch <- frame{t, payload}:
		default:
			// More replies than requests: a server bug, but never a reason
			// to block the reader and stall every other query.
			c.recycle(payload)
		}
	}
}

// recycle gives a reply payload back to the reply list. The caller holds
// no view of it afterwards.
func (c *Client) recycle(payload []byte) {
	if c.poison {
		b := payload[:cap(payload)]
		for i := range b {
			b[i] = poisonByte
		}
	}
	replies.Put(payload)
}

// writeBatch emits a batch of q's frames, or with a nil q connection
// control frames, under one lock, flushing if asked: the daemon reads them
// back to back, and other queries' frames never land between them; an
// unflushed batch rides with whichever write flushes next. Each payload
// is enc[lo:hi]. The query's first write takes the next query ID and
// registers its reply queue under the same lock, so a connection's
// queries reach the daemon, which opens a query on its first frame, in
// increasing ID order. ID 0 is ControlID: a wrap skips it.
func (c *Client) writeBatch(q *Query, reqs []request, enc []byte, flush bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	if c.err != nil {
		defer c.mu.Unlock()
		return c.err
	}
	qid := wire.ControlID
	if q != nil {
		if q.id == 0 {
			if c.nextID++; c.nextID == wire.ControlID {
				c.nextID++
			}
			q.id = c.nextID
			c.pending[q.id] = q.resp
		}
		qid = q.id
	}
	c.mu.Unlock()
	var err error
	for _, r := range reqs {
		if err = c.fw.WriteFrame(r.t, qid, enc[r.lo:r.hi]); err != nil {
			break
		}
	}
	if err == nil && flush {
		err = c.bw.Flush()
	}
	if err != nil {
		err = fmt.Errorf("client: write: %w", err)
		c.fail(err)
		return err
	}
	return nil
}

// serverError is a request the daemon rejected. The connection remains
// usable for further queries — with per-query frame routing a rejection
// cannot desynchronize anything.
type serverError struct{ text string }

func (e *serverError) Error() string { return "client: server: " + e.text }

// IsServerReject reports whether err is a daemon-side rejection (as opposed
// to a transport failure that killed the connection).
func IsServerReject(err error) bool {
	var se *serverError
	return errors.As(err, &se)
}

// IsServerShutdown reports whether err is a stopping daemon's proactive
// notice for an in-flight query. The transport still worked — it is a
// rejection, not a failure — but it announces the server is going away,
// so failover logic (the fleet's breaker) treats it like a death.
func IsServerShutdown(err error) bool {
	var se *serverError
	return errors.As(err, &se) && strings.Contains(se.text, "server shutting down")
}

// ErrBusy marks a query the daemon shed at admission under overload.
// Callers match it with errors.Is; the full *BusyError carries the
// server's retry-after hint. The connection stays healthy — the right
// response is to retry the WHOLE query after backing off, redrawing all
// PIR randomness, never to resend any recorded round.
var ErrBusy = errors.New("client: server busy, query shed at admission")

// BusyError is the typed form of a shed query: errors.Is(err, ErrBusy)
// matches it, and RetryAfter is the server's load-derived backoff hint.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("client: server busy, query shed at admission (retry after %v)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrBusy) match any *BusyError.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// Ping makes one bare round trip on the control ID: a Ping, answered by a
// Pong. It touches no query session and no counter a query moves, so it
// tells a live daemon from one that holds the connection but stopped
// answering. Safe to call while queries are in flight.
func (c *Client) Ping(ctx context.Context) error {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	// Drop any stale Pong abandoned by an earlier ctx abort.
	for {
		select {
		case <-c.ctl:
			continue
		default:
		}
		break
	}
	if err := c.writeBatch(nil, []request{{t: wire.MsgPing}}, nil, true); err != nil {
		return err
	}
	select {
	case f := <-c.ctl:
		if f.t != wire.MsgPong || len(f.payload) != 0 {
			err := fmt.Errorf("client: expected an empty Pong, got %s of %d bytes", f.t, len(f.payload))
			c.fail(err)
			return err
		}
		return nil
	case <-c.done:
		return c.lastErr()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Query is one query session multiplexed on a Client. It implements
// lbs.Service, lbs.Backend and lbs.RoundReader, so scheme protocol code runs
// against it exactly as against an in-process server. A Query is used by one
// goroutine at a time and must be settled with End (completed) or Cancel
// (aborted); different Queries on one Client run fully concurrently.
//
// Every exchange is a batch: the request frames go out under one flush, and
// the replies are collected in order, so a batch costs one wait however
// many frames it holds. A batch may end with the query's EndQuery (an
// lbs.Frame with End set): the query is then complete on the daemon once
// the batch returns, and End hands back the trace its QueryDone carried.
// A Busy or an Error ends the query instead, and every later call returns
// it again.
//
// The query holds the buffer of every reply it takes, and the pages it
// returns alias those buffers: they stay valid until End or Cancel, which
// give the buffers back to the process's reply list for later replies. A
// caller that keeps a page past that copies it first.
type Query struct {
	c    *Client
	id   uint32     // 0 until the query's first write takes one
	resp chan frame // replies, in request order; holds a whole batch

	ended bool   // completed: trace is the daemon's QueryDone
	trace string // the server-observed trace, once ended
	// over is nil while the query is open; once it is settled, what every
	// later call returns: the Busy or Error that ended it, or errSettled.
	over error
	// held is the payload of every reply taken off resp since the last
	// End or Cancel: the buffers the returned pages alias.
	held [][]byte

	// Batch-encoding scratch, reused across the query's batches (a Query is
	// single-goroutine by contract): every request payload of a batch is
	// encoded into enc, back to back.
	enc   *pagefile.Enc
	reqs  []request
	pages []uint32
}

// request is one request frame of a batch: its payload is the batch
// encoder's bytes [lo, hi), and replies frames of type want answer it —
// none for a round announcement, one QueryDone for an EndQuery, and for a
// fetch the Pages frames of the daemon's reply cut (wire.ReplyFrames).
type request struct {
	t       wire.MsgType
	lo, hi  int
	want    wire.MsgType
	replies int
}

// ShareFrame is one request of a share batch (Query.ReadShareFrames): the
// announcement of the next round, the end of the query, or XOR PIR selector
// shares of File.
type ShareFrame struct {
	NewRound bool
	End      bool
	File     string
	Sels     [][]byte
}

// StartQuery starts a fresh query session. Nothing goes over the wire until
// its first use, whose frame opens the query on the daemon; that write
// gives the query its connection-unique ID.
func (c *Client) StartQuery() *Query {
	mInflight.Inc()
	return &Query{c: c, resp: make(chan frame, 8), enc: pagefile.NewEnc(256)}
}

// Connect implements lbs.Service: the scheme's protocol drives this query
// session under the query's context.
func (q *Query) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, q) }

// errSettled is what a call on a query that completed or was cancelled
// returns.
var errSettled = errors.New("client: query already settled")

// add queues one request of the batch being built: its payload is what
// the batch encoder gained since it held lo bytes, and replies frames of
// type want answer it.
func (q *Query) add(t wire.MsgType, lo int, want wire.MsgType, replies int) {
	q.reqs = append(q.reqs, request{t, lo, q.enc.Len(), want, replies})
}

// batch writes the queued requests under one flush, then collects their
// replies in order: each request's frames of its type. A Busy or an Error
// is the query's last reply — the daemon ends the query with it and
// answers nothing of it after — so it settles the query and fails the
// batch at once. A dead context abandons the wait (late replies are
// dropped by the reader); the caller is expected to settle the query with
// Cancel.
func (q *Query) batch(ctx context.Context) ([][]byte, error) {
	reqs := q.reqs
	q.reqs = q.reqs[:0]
	n := 0
	for _, r := range reqs {
		n += r.replies
	}
	if cap(q.resp) < n {
		// Grow the reply queue before anything is sent, so the reader never
		// finds it full while this batch is answered. A query not yet
		// written is not registered: its first write registers the grown
		// queue.
		ch := make(chan frame, max(n, 2*cap(q.resp)))
		q.c.mu.Lock()
		if _, ok := q.c.pending[q.id]; ok {
			q.c.pending[q.id] = ch
		}
		q.c.mu.Unlock()
		q.resp = ch
	}
	start := time.Now()
	if err := q.c.writeBatch(q, reqs, q.enc.Bytes(), true); err != nil {
		return nil, err
	}
	replies := make([][]byte, 0, n)
	for _, r := range reqs {
		for range r.replies {
			select {
			case f := <-q.resp:
				if f.payload != nil {
					q.held = append(q.held, f.payload)
				}
				switch f.t {
				case r.want:
					replies = append(replies, f.payload)
				case wire.MsgBusy, wire.MsgError:
					return nil, q.refused(f)
				default:
					err := fmt.Errorf("client: expected %s, got %s", r.want, f.t)
					q.c.fail(err)
					return nil, err
				}
			case <-q.c.done:
				return nil, q.c.lastErr()
			case <-ctx.Done():
				// The replies may still arrive; drop them when they do. The
				// query can no longer be driven — Cancel settles it.
				q.c.release(q.id)
				return nil, ctx.Err()
			}
		}
	}
	mRoundtrip.Observe(int64(time.Since(start)))
	return replies, nil
}

// refused settles the query on the reply the daemon ended it with: a Busy
// (shed at admission, never opened) or an Error (a refused request, or
// shutdown). The connection stays usable. A shed query is retried whole
// after the hinted delay, with fresh randomness. The returned error is
// also what every later call on the query returns.
func (q *Query) refused(f frame) error {
	var err, derr error
	if f.t == wire.MsgBusy {
		var busy wire.Busy
		busy, derr = wire.DecodeBusy(f.payload)
		err = &BusyError{RetryAfter: time.Duration(busy.RetryAfterMillis) * time.Millisecond}
	} else {
		var em wire.ErrorMsg
		em, derr = wire.DecodeErrorMsg(f.payload)
		err = &serverError{text: em.Text}
	}
	if derr != nil {
		q.c.fail(derr)
		return derr
	}
	q.over = err
	mInflight.Dec()
	q.c.release(q.id)
	return err
}

// HeaderBytes returns the public header the Welcome carried, without a
// round trip: the header is the same for every client (§5.3), so no query
// asks for it.
func (q *Query) HeaderBytes(context.Context) ([]byte, error) {
	return q.c.header, nil
}

// FileInfo answers from the Welcome's public file table without a round
// trip.
func (q *Query) FileInfo(name string) (lbs.FileInfo, error) {
	return q.c.FileInfo(name)
}

// NextRound announces the next round on its own, fire-and-forget: the frame
// rides with the next batch's flush. A session that batches its rounds
// sends the announcement inside ReadFrames instead.
func (q *Query) NextRound(context.Context) error {
	if q.over != nil {
		return q.over
	}
	q.reqs = append(q.reqs[:0], request{t: wire.MsgNextRound})
	return q.c.writeBatch(q, q.reqs, nil, false)
}

// ReadFrames implements lbs.RoundReader: it writes every frame under one
// flush — a round announcement as NextRound, the end of the query as
// EndQuery, a read as one Fetch frame for the file's pages — and then
// collects the replies in order. The pages alias the query's reply buffers
// and stay valid until its End or Cancel.
func (q *Query) ReadFrames(ctx context.Context, frames []lbs.Frame) ([][][]byte, error) {
	for _, f := range frames {
		for _, p := range f.Pages {
			if p < 0 {
				return nil, fmt.Errorf("client: negative page %d", p)
			}
		}
	}
	return q.pipeline(ctx, wire.MsgFetch, len(frames),
		func(i int) (wire.MsgType, string, int) {
			return kind(frames[i].NewRound, frames[i].End, wire.MsgFetch), frames[i].File, len(frames[i].Pages)
		},
		func(e *pagefile.Enc, i int) {
			q.pages = q.pages[:0]
			for _, p := range frames[i].Pages {
				q.pages = append(q.pages, uint32(p))
			}
			wire.Fetch{File: frames[i].File, Pages: q.pages}.EncodeTo(e)
		})
}

// ReadPages ships the batch in one Fetch frame: a one-frame ReadFrames.
func (q *Query) ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error) {
	out, err := q.ReadFrames(ctx, []lbs.Frame{{File: file, Pages: pages}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ReadShareFrames is ReadFrames for XOR PIR selector shares: every frame
// goes out under one flush, a round announcement as NextRound, the end of
// the query as EndQuery, shares as one FetchShare frame for the file's
// selectors, and it returns, per selector, the XOR of the pages it selects.
// This is the fleet client's half of two-server PIR: the daemon answers a
// FetchShare in a single scan without ever reconstructing a page. Like
// ReadFrames' pages, the answers stay valid until the query's End or
// Cancel; the caller may write into them until then.
func (q *Query) ReadShareFrames(ctx context.Context, frames []ShareFrame) ([][][]byte, error) {
	return q.pipeline(ctx, wire.MsgFetchShare, len(frames),
		func(i int) (wire.MsgType, string, int) {
			return kind(frames[i].NewRound, frames[i].End, wire.MsgFetchShare), frames[i].File, len(frames[i].Sels)
		},
		func(e *pagefile.Enc, i int) {
			wire.ShareFetch{File: frames[i].File, Sels: frames[i].Sels}.EncodeTo(e)
		})
}

// kind is the request type of a batch entry: a round announcement, the end
// of the query, or a read sent as t.
func kind(newRound, end bool, t wire.MsgType) wire.MsgType {
	switch {
	case newRound:
		return wire.MsgNextRound
	case end:
		return wire.MsgEndQuery
	}
	return t
}

// pipeline sends n frames as one batch — frame i of the type shape gives
// it, a read as one request of type t carrying shape's count of items of
// its file, encoded by encode — and returns each frame's answers, one page
// per item (nil for an announcement, the end, or a read of no items). A
// read's reply arrives as the daemon cuts it, wire.ReplyFrames Pages
// frames; an EndQuery's QueryDone settles the query, keeping its trace for
// End. A request that would not fit one frame — more than
// wire.MaxFetchBatch items or maxFrame bytes; no plan quota comes near —
// is refused before any frame of the batch is written.
func (q *Query) pipeline(ctx context.Context, t wire.MsgType, n int,
	shape func(i int) (kind wire.MsgType, file string, items int), encode func(e *pagefile.Enc, i int),
) ([][][]byte, error) {
	if q.over != nil {
		return nil, q.over
	}
	q.enc.Reset()
	q.reqs = q.reqs[:0]
	for i := range n {
		k, file, items := shape(i)
		switch {
		case k == wire.MsgNextRound:
			q.add(k, q.enc.Len(), 0, 0)
			continue
		case k == wire.MsgEndQuery:
			q.add(k, q.enc.Len(), wire.MsgQueryDone, 1)
			continue
		case items == 0:
			continue
		}
		lo := q.enc.Len()
		if items <= wire.MaxFetchBatch {
			encode(q.enc, i)
		}
		if items > wire.MaxFetchBatch || q.enc.Len()-lo > q.c.maxFrame {
			return nil, fmt.Errorf("client: a quota of %d items of %s does not fit one %s frame", items, file, t)
		}
		q.add(t, lo, wire.MsgPages, wire.ReplyFrames(file, q.c.files[file].PageSize, items))
	}
	replies, err := q.batch(ctx)
	if err != nil {
		return nil, err
	}
	next := func() []byte {
		r := replies[0]
		replies = replies[1:]
		return r
	}
	out := make([][][]byte, n)
	for i := range n {
		k, file, items := shape(i)
		switch k {
		case wire.MsgNextRound:
			continue
		case wire.MsgEndQuery:
			done, err := wire.DecodeQueryDone(next())
			if err != nil {
				q.c.fail(err)
				return nil, err
			}
			q.settle(done.Trace)
			continue
		}
		cut := wire.ReplyCut(file, q.c.files[file].PageSize)
		for lo := 0; lo < items; lo += cut {
			resp, err := wire.DecodePages(next())
			if want := min(cut, items-lo); err == nil && len(resp.Pages) != want {
				err = fmt.Errorf("client: got %d pages, want %d", len(resp.Pages), want)
			}
			if err != nil {
				q.c.fail(err)
				return nil, err
			}
			if out[i] == nil {
				out[i] = resp.Pages
			} else {
				out[i] = append(out[i], resp.Pages...)
			}
		}
	}
	return out, nil
}

// settle completes the query with the trace the daemon's QueryDone carried:
// the daemon has recorded the query, so nothing more goes out for it.
func (q *Query) settle(trace string) {
	q.trace, q.ended, q.over = trace, true, errSettled
	mInflight.Dec()
	q.c.release(q.id)
}

// recycle gives the buffers of the replies the query took back to the
// reply list: no page it returned may be read after this. Safe to call
// again; the second call finds nothing held.
func (q *Query) recycle() {
	for i, b := range q.held {
		q.c.recycle(b)
		q.held[i] = nil
	}
	q.held = q.held[:0]
}

// Model returns the cost-model parameters queries simulate with: the
// paper's Table 2 defaults.
func (q *Query) Model() costmodel.Params { return costmodel.Default() }

// End completes the query session and returns the trace the daemon
// observed for it — the adversarial view of the query just run. When the
// query's last batch already carried the EndQuery, End returns the trace
// that batch brought back, without a round trip. The pages the query
// returned are invalid once End returns, whatever it returns.
func (q *Query) End(ctx context.Context) (string, error) {
	defer q.recycle()
	if ctx == nil {
		ctx = context.Background()
	}
	if q.ended {
		return q.trace, nil
	}
	if q.over != nil {
		return "", q.over
	}
	if q.id == 0 {
		return "", errors.New("client: no query in flight")
	}
	if _, err := q.ReadFrames(ctx, []lbs.Frame{{End: true}}); err != nil {
		return "", err
	}
	return q.trace, nil
}

// Cancel settles an unfinished query: a best-effort CANCEL frame tells the
// daemon to abort any in-flight work for it and account the abort under the
// given wire.Cancel* reason (wire.CancelAbandon discards the partial query
// entirely — right for queries that failed rather than were called off).
// Safe to call after End, after a batch that carried the query's end,
// after a Busy or an Error ended the query, or after a previous Cancel — a
// no-op for the daemon in each case — so callers may defer it. Either way
// the pages the query returned are invalid once Cancel returns.
func (q *Query) Cancel(reason uint8) {
	defer q.recycle()
	if q.over != nil {
		return
	}
	q.over = errSettled
	mInflight.Dec()
	if q.id != 0 {
		// Best-effort: the daemon also aborts on connection teardown.
		enc := wire.Cancel{Reason: reason}.Encode()
		q.c.writeBatch(q, []request{{t: wire.MsgCancel, hi: len(enc)}}, enc, true)
	}
	q.c.release(q.id)
}

var _ lbs.RoundReader = (*Query)(nil)
