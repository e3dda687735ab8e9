// Package server is the networked LBS daemon: it hosts one or more built
// scheme databases behind the PIR interface and serves the wire protocol of
// internal/wire over TCP. This is the untrusted party of §3.1 deployed for
// real — per-connection sessions multiplexing concurrent queries by query
// ID, a bounded worker pool for PIR page reads, per-query contexts so a
// client CANCEL (or a dropped connection, or shutdown) aborts exactly the
// work nobody wants anymore, and a server-side trace recorder that captures
// exactly the adversarial view: per query, the round structure and how many
// pages of each file were read, never which pages. The privacy tests
// compare these server-observed traces across distinct remote queries, and
// check that a cancelled query's trace is a prefix of a full one
// (Theorem 1).
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Options tunes the daemon.
type Options struct {
	// Stores builds the PIR store for each hosted file; nil means
	// lbs.PlainStores. A scan store (e.g. pir.NewXORPIR) answers each fetch
	// or share batch in one pass.
	Stores lbs.StoreFactory
	// MaxInflight bounds the queries open at once across the whole daemon.
	// A query past the budget is shed at admission, at its first frame —
	// answered with a typed Busy frame carrying a retry-after hint, before
	// any query content is read, so the shed decision cannot depend on
	// src/dst.
	// It is the daemon's one concurrency setting: 0 means 64×GOMAXPROCS;
	// negative disables shedding.
	MaxInflight int
	// ReplicaRole runs the daemon as a non-reconstructing fleet replica:
	// plain Fetch frames are rejected and only FetchShare is served, so the
	// process never holds both XOR PIR shares of any query and could not
	// reconstruct a page even if compromised. Requires share-capable stores
	// (pir.ShareAnswerer, e.g. XOR PIR) on every hosted file.
	ReplicaRole bool
	// Logf receives serving events; nil disables logging.
	Logf func(format string, args ...any)
}

// traceHistory is how many completed per-query traces each database
// retains for auditing.
const traceHistory = 128

// poolSlots is the size of every hosted database's worker pool: each fetch
// or share batch is one store call holding one slot, so it bounds the store
// calls running at once on one database, however many connections send
// them. How wide one call scans is the store's own
// (pir.XORPIR.ScanWorkers). Every database gets its own pool, so sessions
// on distinct databases never serialize on each other.
func poolSlots() int { return 2 * runtime.GOMAXPROCS(0) }

// hosted is one served database plus its metric handles and recent traces.
// All serving counters live in the telemetry registry (see hostedMetrics).
type hosted struct {
	name  string
	srv   *lbs.Server
	m     hostedMetrics // nil-safe handles; zero value records into nothing
	inbox int           // frames a query inbox holds: its plan's most in flight

	mu     sync.Mutex
	traces []string // ring of the most recent completed query traces
	next   int
	limit  int
}

func (h *hosted) addTrace(tr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.traces) < h.limit {
		h.traces = append(h.traces, tr)
	} else {
		h.traces[h.next] = tr
	}
	h.next = (h.next + 1) % h.limit
}

// Server is the daemon. Host databases, then Serve a listener; Shutdown
// stops accepting, cancels in-flight queries, and waits for sessions to
// settle.
type Server struct {
	opts Options

	// baseCtx is the root of every per-connection (and per-query) context;
	// Shutdown cancels it, aborting in-flight queries instead of draining
	// them.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// hostMu serialises Host, so a name's check, store build and series
	// registration are one step without holding mu across a build.
	hostMu sync.Mutex

	mu     sync.Mutex
	dbs    map[string]*hosted
	order  []string
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup

	// inflight counts open queries daemon-wide for admission control; it
	// moves in openQuery/finishQuery, never on query content.
	inflight atomic.Int64

	// pages holds the buffers fetches are answered into, and frames the
	// buffers request frames are read into. Two lists, because one would
	// let small request buffers take best-fit slots from quota-sized page
	// buffers.
	pages, frames pagefile.PageList
	poison        bool // poisonFrames as the server was made

	tel *telemetry.Registry
	m   serverMetrics
}

// New prepares a daemon with no databases hosted yet.
func New(opts Options) *Server {
	if opts.MaxInflight == 0 {
		// Generous by default: admission control is an overload backstop,
		// not a throttle. 32 queries per pool slot comfortably covers the
		// multiplexed-connection fan-in a healthy daemon serves.
		opts.MaxInflight = 32 * poolSlots()
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		baseCtx:    ctx,
		baseCancel: cancel,
		dbs:        map[string]*hosted{},
		conns:      map[net.Conn]struct{}{},
		poison:     poisonFrames,
		tel:        telemetry.NewRegistry(),
	}
	s.initTelemetry()
	return s
}

// Telemetry returns the registry this daemon records every serving metric
// into — the source the admin endpoint scrapes. It is private to the
// daemon, not process-global, so two servers in one process — common in
// tests — never share series.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// admitQuery claims one slot of the in-flight budget, reporting whether the
// query may open. The decision reads a load counter only — it runs before
// any query content exists to read (Theorem 1: shedding is content-blind).
func (s *Server) admitQuery() bool {
	if s.opts.MaxInflight < 0 {
		return true
	}
	if s.inflight.Add(1) > int64(s.opts.MaxInflight) {
		s.inflight.Add(-1)
		return false
	}
	return true
}

// releaseQuery returns an admitted query's slot.
func (s *Server) releaseQuery() {
	if s.opts.MaxInflight >= 0 {
		s.inflight.Add(-1)
	}
}

// Ready reports whether the daemon has in-flight headroom — the /readyz
// answer. False means the next query to open would be shed at its first
// frame.
func (s *Server) Ready() bool {
	return s.opts.MaxInflight < 0 || s.inflight.Load() < int64(s.opts.MaxInflight)
}

// retryAfterHint picks the Busy frame's retry-after delay from current load
// alone: 25ms per multiple of the budget currently outstanding, clamped to
// [25ms, 1s]. Load-dependent, never query-dependent.
func (s *Server) retryAfterHint() time.Duration {
	const step = 25 * time.Millisecond
	d := step
	if m := int64(s.opts.MaxInflight); m > 0 {
		d = step * time.Duration(s.inflight.Load()/m+1)
	}
	return min(max(d, step), time.Second)
}

// Host registers a built database under the given name (clients select it
// in their Hello). The database is served with Options.Stores (PlainStores
// by default) behind a worker pool of poolSlots slots, private to this
// database. Any store mix is safe to serve concurrently: every
// pir.Store is, and lbs.Server answers each batch with one store call on
// one pool slot (see lbs.Server.ReadPagesInto). The name is checked before
// the stores are built, so a refused duplicate registers no series over the
// hosted database's telemetry.
func (s *Server) Host(name string, db *lbs.Database, model costmodel.Params) error {
	if name == "" {
		return errors.New("server: empty database name")
	}
	s.hostMu.Lock()
	defer s.hostMu.Unlock()
	s.mu.Lock()
	_, dup := s.dbs[name]
	s.mu.Unlock()
	if dup {
		return fmt.Errorf("server: database %q already hosted", name)
	}
	lsrv, err := lbs.NewServer(db, model, s.opts.Stores,
		lbs.WithWorkers(poolSlots()), lbs.WithTelemetry(s.tel, name))
	if err != nil {
		return err
	}
	if s.opts.ReplicaRole && !lsrv.ShareCapable() {
		return fmt.Errorf("server: replica role requires share-capable stores on every file of %q (use two-server XOR PIR)", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dbs[name] = s.newHosted(name, lsrv)
	s.order = append(s.order, name)
	return nil
}

// lookup resolves a Hello's database name; "" selects the sole database.
// The error texts travel to remote clients (which add their own prefix),
// so they carry no package prefix.
func (s *Server) lookup(name string) (*hosted, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		if len(s.order) == 1 {
			return s.dbs[s.order[0]], nil
		}
		return nil, fmt.Errorf("%d databases hosted, name one of %v", len(s.order), s.order)
	}
	h, ok := s.dbs[name]
	if !ok {
		return nil, fmt.Errorf("no database %q (hosted: %v)", name, s.order)
	}
	return h, nil
}

// Serve accepts connections until the listener fails or Shutdown runs.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	s.opts.Logf("privspd: serving on %s", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.m.connsTotal.Inc()
		s.m.connsActive.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.m.connsActive.Dec()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			newSession(s, conn).run()
		}()
	}
}

// Addr returns the serving address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops accepting and cancels every in-flight query — aborting
// queued PIR reads and notifying their clients — rather than draining them:
// a query the daemon will never finish should fail now, not at the drain
// deadline. It then waits for sessions to settle until the context expires
// and force-closes the stragglers (clients that keep idle connections
// open).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// fetchScratch is the working set of the fetch-serving hot path: the
// decoded request, the page-index conversion, and the page buffers the PIR
// stores fill and the reply is written from (wire.FrameWriter.WritePages).
// A query's goroutine serves one frame at a time, so each query holds its
// own. The page buffer is taken from Server.pages per fetch and given back
// once the reply is written: a plan quota is one request and one store
// pass, so a fetch's buffer holds a whole quota — 208 KB for CI's Fd:52 at
// 4-KB pages — and kept one per query, such buffers would pin a quota per
// concurrent client; the list keeps a bounded few, best fit. With the
// query's scratch warm, a steady-state fetch — decode, PIR read, reply
// write — performs zero allocations (see TestSteadyStateFetchZeroAllocs).
type fetchScratch struct {
	req      wire.Fetch
	shareReq wire.ShareFetch // decoded FetchShare; selectors alias the frame buffer
	idx      []int
	flat     []byte   // one backing array for all page buffers, from Server.pages
	bufs     [][]byte // page buffers, cut from flat
}

// grow sizes sc for k pages of ps bytes each, taking the listed page
// buffer that fits best. sc holds none when grow is called: release gave
// the last one back.
func (sc *fetchScratch) grow(pages *pagefile.PageList, k, ps int) {
	if cap(sc.idx) < k {
		sc.idx = make([]int, k)
	}
	sc.idx = sc.idx[:k]
	sc.flat = pages.Get(k * ps)
	sc.bufs = sc.bufs[:0]
	for off := 0; off < len(sc.flat); off += ps {
		sc.bufs = append(sc.bufs, sc.flat[off:off+ps])
	}
}

// release gives sc's page buffer back to pages once its reply is written.
func (sc *fetchScratch) release(pages *pagefile.PageList) {
	pages.Put(sc.flat)
	sc.flat = nil
	clear(sc.bufs) // the buffer is the list's now: hold no view of it
	sc.bufs = sc.bufs[:0]
}

// poisonFrames makes every request buffer given back to the frame list
// read as poisonByte, so a fetch that still reads its request after the
// frame went back answers garbage. Tests set it before New; a Server takes
// its value when it is made.
var poisonFrames = false

// poisonByte is what a recycled request buffer reads as while poisonFrames
// holds.
const poisonByte = 0xA5

// putFrame gives a finished request frame's buffer back to the frame list.
// The caller must hold no view of it afterwards.
func (s *Server) putFrame(payload []byte) {
	if s.poison {
		b := payload[:cap(payload)]
		for i := range b {
			b[i] = poisonByte
		}
	}
	s.frames.Put(payload)
}

// answerFetch serves one Fetch or FetchShare frame of type t: it decodes
// the request into sc, then answers it into sc's page buffers with one
// store call on one slot of the database's worker pool — the pages a Fetch
// names (lbs.Server.ReadPagesInto), or the XOR of the pages each of a
// FetchShare's selectors picks (lbs.Server.AnswerShares, the replica half
// of two-server PIR, which never reconstructs a page). Both refuse a page
// index or a selector length the file cannot have before a slot is taken.
// The query's context aborts a call waiting for a slot, freeing the worker
// for queries that still want answers. A FetchShare's selectors alias
// payload, which must stay valid for the call. The returned pages are sc's
// buffers, valid until sc.release gives them back: the reply is written
// from them.
func (s *Server) answerFetch(ctx context.Context, h *hosted, t wire.MsgType, payload []byte, sc *fetchScratch) (file string, pages [][]byte, err error) {
	n := 0
	if t == wire.MsgFetch {
		err = sc.req.DecodeInto(payload)
		file, n = sc.req.File, len(sc.req.Pages)
	} else {
		err = sc.shareReq.DecodeInto(payload)
		file, n = sc.shareReq.File, len(sc.shareReq.Sels)
	}
	if err != nil {
		return "", nil, err
	}
	if n == 0 {
		return "", nil, fmt.Errorf("empty %s", t)
	}
	info, err := h.srv.FileInfo(file)
	if err != nil {
		return "", nil, err
	}
	sc.grow(&s.pages, n, info.PageSize)
	h.m.batchSize.Observe(int64(n))
	t0 := time.Now()
	if t == wire.MsgFetch {
		for i, p := range sc.req.Pages {
			sc.idx[i] = int(p)
		}
		err = h.srv.ReadPagesInto(ctx, file, sc.idx, sc.bufs)
	} else {
		h.m.shareFetches.Inc()
		err = h.srv.AnswerShares(ctx, file, sc.shareReq.Sels, sc.bufs)
	}
	h.m.scanLat.Observe(int64(time.Since(t0)))
	if err != nil {
		return "", nil, err
	}
	return file, sc.bufs, nil
}

// Traces returns the retained server-observed traces of the named database,
// oldest first. The Theorem 1 over-the-wire tests assert these are
// pairwise identical.
func (s *Server) Traces(db string) []string {
	s.mu.Lock()
	h, ok := s.dbs[db]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.traces))
	for i := 0; i < len(h.traces); i++ {
		out = append(out, h.traces[(h.next+i)%len(h.traces)])
	}
	return out
}
