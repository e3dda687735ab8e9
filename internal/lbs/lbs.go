// Package lbs models the system architecture of §3.1 (Figure 1): an LBS
// hosting the database files, an SCP offering a PIR interface over them, and
// clients running the multi-round query protocol over a secure connection.
//
// The server records exactly what the adversary (the LBS itself) can
// observe: for every query, the sequence of rounds and, within each round,
// which file was accessed how many times. Page numbers are invisible — the
// PIR layer hides them — so the trace is the complete adversarial view, and
// the privacy tests assert it is identical across queries (Theorem 1).
//
// The query protocol is written against two small interfaces so the same
// scheme code drives either deployment: Backend is the raw service surface
// (the public header, batched PIR page reads), implemented in-process by
// Server and over the network by the wire client; Service is anything that
// can open a Conn, the pair of a query's context and its Backend. The
// protocol bookkeeping — rounds, the Table 2 cost simulation and the
// Transcript — belongs to the one per-query object that walks the plan,
// base.Session.
package lbs

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// Database is everything a scheme's build step produces: the public header,
// the page files, and the public query plan. Files holds pagefile.Readers,
// so a database built in memory and one loaded from a persistent container
// (privsp.Open) serve through identical code. Files must not be mutated
// once the database is served or File has been called: lookups go through a
// lazily built name index.
type Database struct {
	Scheme string
	Header []byte
	Files  []pagefile.Reader
	Plan   plan.Plan

	indexOnce sync.Once
	byName    map[string]pagefile.Reader
	indexErr  error
}

// index builds the name→file map once, rejecting duplicate names (two files
// with one name would make every lookup — and therefore the served access
// pattern — ambiguous). NewServer surfaces the error at host time.
func (db *Database) index() error {
	db.indexOnce.Do(func() {
		m := make(map[string]pagefile.Reader, len(db.Files))
		for _, f := range db.Files {
			if _, dup := m[f.Name()]; dup {
				db.indexErr = fmt.Errorf("lbs: duplicate file name %q in %s database", f.Name(), db.Scheme)
				return
			}
			m[f.Name()] = f
		}
		db.byName = m
	})
	return db.indexErr
}

// File returns the named file, or nil. Lookups are O(1) against the name
// index (and nil for every name when the database holds duplicate names —
// such a database is rejected at host time).
func (db *Database) File(name string) pagefile.Reader {
	if db.index() != nil {
		return nil
	}
	return db.byName[name]
}

// TotalBytes is the database size (header plus all page files), the space
// metric reported in the paper's charts.
func (db *Database) TotalBytes() int64 {
	total := int64(len(db.Header))
	for _, f := range db.Files {
		total += pagefile.Bytes(f)
	}
	return total
}

// FileInfo is the public metadata of one hosted page file. File lengths and
// page sizes are not secrets — the query plan itself is public — so backends
// expose them for cost accounting and batching.
type FileInfo struct {
	Name     string
	NumPages int
	PageSize int
}

// Backend is the raw service surface a query drives: the public header and PIR
// page retrieval. The in-process Server implements it directly; the remote
// wire client implements it over TCP, so the schemes execute identical
// protocol logic against either deployment. Every operation that can block
// takes the query's context: a backend honors cancellation while work is
// queued (waiting for a pool slot, waiting for a wire reply) and returns
// ctx.Err() once the context is dead.
type Backend interface {
	// HeaderBytes returns the public header file. It is the same for
	// every client (§5.3): a remote backend returns the copy its
	// connection received at handshake, without a round trip.
	HeaderBytes(ctx context.Context) ([]byte, error)
	// FileInfo returns the public metadata of the named file.
	FileInfo(name string) (FileInfo, error)
	// NextRound signals the start of the next protocol round to the
	// service, which records it in the adversary-visible trace.
	NextRound(ctx context.Context) error
	// ReadPages retrieves the given pages of one file through the PIR
	// interface — a single batched round trip for remote backends. The
	// page indices travel encrypted to the SCP; the adversary observes
	// only how many pages of the file were read. The backend reads pages
	// and never writes it: a session passes one slice to every padding
	// frame.
	ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error)
	// Model returns the cost-model parameters for the simulated stats.
	Model() costmodel.Params
}

// Frame is one request of a query as the service sees it: the announcement
// of the next round, one batched read of Pages of File, or the end of the
// query. An end marker rides the batch that sends a plan's last quota, so a
// remote backend completes the query with that batch instead of a round
// trip of its own; the query's trace is then what the backend's End
// returns. A backend without ReadFrames has nothing to send it with, and
// ReadFrames' replay skips it.
type Frame struct {
	NewRound bool
	End      bool
	File     string
	Pages    []int
}

// RoundReader is the optional batch face of a Backend: ReadFrames sends
// every frame before it waits for any reply, and returns one entry per
// frame, in order — the pages of a read, nil for a round announcement or an
// end marker. A remote backend pipelines the batch on its connection, so
// the batch costs one wait however many frames it holds. Like ReadPages, it
// never writes a frame's page list.
type RoundReader interface {
	ReadFrames(ctx context.Context, frames []Frame) ([][][]byte, error)
}

// ReadFrames sends frames to b as one batch when b is a RoundReader, and
// otherwise replays them one at a time as NextRound and ReadPages calls,
// skipping an end marker.
func ReadFrames(ctx context.Context, b Backend, frames []Frame) ([][][]byte, error) {
	if rr, ok := b.(RoundReader); ok {
		return rr.ReadFrames(ctx, frames)
	}
	out := make([][][]byte, len(frames))
	for i, f := range frames {
		var err error
		switch {
		case f.NewRound:
			err = b.NextRound(ctx)
		case !f.End:
			out[i], err = b.ReadPages(ctx, f.File, f.Pages)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Service is what a scheme's query protocol needs from a deployment: the
// ability to open a per-query connection governed by the query's context.
// *Server and the remote client's per-query session both implement it.
type Service interface {
	Connect(ctx context.Context) *Conn
}

// StoreFactory turns a page file into a PIR store. The default, PlainStores,
// simulates PIR timing analytically, like the paper; XORStores serves real
// two-server PIR (privspd -pir xorpir). The factory receives the Reader, not
// a concrete file, so the same store construction serves in-memory builds,
// opened containers and raw page slices.
type StoreFactory func(pagefile.Reader) (pir.Store, error)

// PlainStores is the default StoreFactory: reads delegate straight to the
// Reader, so an opened container's file is served from its read-only
// mapping, paged in by the operating system, without a copy on the heap.
func PlainStores(f pagefile.Reader) (pir.Store, error) {
	return pir.NewPlain(f), nil
}

// XORStores backs each file with Chor et al.'s two-server XOR PIR: the file
// is held in memory and every read scans all of it. An in-memory build's
// pages, and an opened container's mapping when its pages are a multiple of
// 8 bytes, are viewed in place; any other file is copied into an arena. The
// store answers whole reads in-process and selector shares as a fleet
// replica.
func XORStores(f pagefile.Reader) (pir.Store, error) {
	return pir.NewXORPIR(f)
}

// Server hosts one database behind a PIR interface. Every store call goes
// through a bounded worker pool private to this server (see slotPool), so
// concurrent serving of distinct databases never contends on shared locks.
// A fetch or share batch is answered by one store call holding one slot,
// and the pool size bounds how many such calls run at once.
type Server struct {
	db     *Database
	model  costmodel.Params
	stores map[string]*hostedStore

	pool slotPool // its size is the WithWorkers bound

	// Telemetry registry (nil without WithTelemetry).
	telReg *telemetry.Registry
	telDB  string
}

// hostedStore is one file's PIR store plus the optional faces probed once at
// host time, so the per-read path does no interface assertions.
type hostedStore struct {
	store  pir.Store
	shares pir.ShareAnswerer // nil when the store cannot answer XOR selector shares
}

// ServerOption tunes a Server at construction.
type ServerOption func(*Server)

// WithWorkers sizes this server's worker pool: the slots held by store calls
// across all connections. A fetch or share batch is one store call on one
// slot, so n bounds the store calls running at once; how wide one call
// scans is the store's own (pir.XORPIR.ScanWorkers). n <= 1 serializes
// every batch — the historical behaviour and the default.
func WithWorkers(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.pool.slots = make(chan struct{}, n)
		}
	}
}

// NewServer prepares PIR stores for every file and validates the PIR size
// limit (§3.2: files beyond the SCP-supported size cannot be served) plus
// the file-name index (duplicate names are rejected at host time).
func NewServer(db *Database, model costmodel.Params, factory StoreFactory, opts ...ServerOption) (*Server, error) {
	if factory == nil {
		factory = PlainStores
	}
	if err := db.index(); err != nil {
		return nil, err
	}
	s := &Server{
		db:     db,
		model:  model,
		stores: map[string]*hostedStore{},
		pool:   slotPool{slots: make(chan struct{}, 1)},
	}
	for _, opt := range opts {
		opt(s)
	}
	for _, f := range db.Files {
		if !model.SupportsFile(pagefile.Bytes(f)) {
			return nil, fmt.Errorf("lbs: file %s (%d bytes) exceeds the PIR interface limit of %d bytes",
				f.Name(), pagefile.Bytes(f), model.MaxFileBytes())
		}
		st, err := factory(f)
		if err != nil {
			return nil, fmt.Errorf("lbs: building PIR store for %s: %w", f.Name(), err)
		}
		hs := &hostedStore{store: st}
		hs.shares, _ = st.(pir.ShareAnswerer)
		s.stores[f.Name()] = hs
	}
	s.initTelemetry()
	return s, nil
}

// Database returns the hosted database.
func (s *Server) Database() *Database { return s.db }

// Model returns the cost model in force.
func (s *Server) Model() costmodel.Params { return s.model }

// HeaderBytes returns the public header file.
func (s *Server) HeaderBytes(context.Context) ([]byte, error) { return s.db.Header, nil }

// FileInfo returns the metadata of one hosted file.
func (s *Server) FileInfo(name string) (FileInfo, error) {
	hs, ok := s.stores[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("lbs: no such file %q", name)
	}
	return FileInfo{Name: name, NumPages: hs.store.NumPages(), PageSize: hs.store.PageSize()}, nil
}

// Files lists the hosted files in database order.
func (s *Server) Files() []FileInfo {
	infos := make([]FileInfo, 0, len(s.db.Files))
	for _, f := range s.db.Files {
		infos = append(infos, FileInfo{Name: f.Name(), NumPages: f.NumPages(), PageSize: f.PageSize()})
	}
	return infos
}

// NextRound is a no-op for the in-process backend: the client session
// itself records the round in its transcript.
func (s *Server) NextRound(context.Context) error { return nil }

// ReadPages retrieves pages through the PIR stores into freshly allocated
// buffers — the in-process face of ReadPagesInto, which does the work.
func (s *Server) ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error) {
	info, err := s.FileInfo(file)
	if err != nil {
		return nil, err
	}
	flat := make([]byte, len(pages)*info.PageSize)
	out := make([][]byte, len(pages))
	for i := range out {
		out[i] = flat[i*info.PageSize : (i+1)*info.PageSize : (i+1)*info.PageSize]
	}
	if err := s.ReadPagesInto(ctx, file, pages, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadPagesInto retrieves pages through the PIR stores into caller-provided
// buffers (each dst[i] at least PageSize bytes): the serving daemon rents
// the buffers from a pool, so its steady-state page path allocates nothing.
// Safe for concurrent use by any number of connections. Every batch takes
// one route: it is validated, takes one pool slot and goes to the store in
// one ReadBatchInto call, so concurrent fetches run as concurrent store
// calls, as many at once as the pool has slots. Buffers and page indices
// are checked before a slot is taken, and an empty batch returns before
// one, so neither moves a metric. Cancelling ctx aborts the batch at read
// boundaries — a batch waiting for a pool slot gives up immediately — but a
// page read that started always completes, so the caller records fetches
// all-or-nothing.
func (s *Server) ReadPagesInto(ctx context.Context, file string, pages []int, dst [][]byte) error {
	hs, ok := s.stores[file]
	if !ok {
		return fmt.Errorf("lbs: no such file %q", file)
	}
	if err := checkBuffers("PIR fetch", file, len(pages), dst, hs.store.PageSize()); err != nil {
		return err
	}
	np := hs.store.NumPages()
	for _, p := range pages {
		if p < 0 || p >= np {
			return fmt.Errorf("lbs: PIR fetch %s: page %d out of range (%d pages)", file, p, np)
		}
	}
	if len(pages) == 0 {
		return nil
	}
	if err := s.pool.acquire(ctx); err != nil {
		return err
	}
	defer s.pool.release()
	return fetchErr(ctx, "PIR fetch", file, hs.store.ReadBatchInto(ctx, pages, dst))
}

// ShareCapable reports whether every hosted file can answer XOR PIR
// selector shares (pir.ShareAnswerer) — the capability a fleet replica
// daemon advertises in its Welcome. All files or nothing: a fleet query
// may touch any file, so partial capability is no capability.
func (s *Server) ShareCapable() bool {
	for _, hs := range s.stores {
		if hs.shares == nil {
			return false
		}
	}
	return len(s.stores) > 0
}

// AnswerShares answers client-supplied XOR selector shares against one
// file: dst[i] receives the XOR of the pages selected by sels[i]. This is
// the replica half of two-server fleet mode — the store never reconstructs
// a page. The whole batch is one AnswerShares call (one scan with k
// accumulators) on one pool slot, like a fetch batch. Buffer sizes and
// selector lengths are validated against the store before any slot is
// taken, so hostile lengths fail fast.
func (s *Server) AnswerShares(ctx context.Context, file string, sels [][]byte, dst [][]byte) error {
	hs, ok := s.stores[file]
	if !ok {
		return fmt.Errorf("lbs: no such file %q", file)
	}
	if hs.shares == nil {
		return fmt.Errorf("lbs: file %q cannot answer selector shares (store is not two-server PIR)", file)
	}
	if err := checkBuffers("share fetch", file, len(sels), dst, hs.store.PageSize()); err != nil {
		return err
	}
	nb := hs.shares.SelectorBytes()
	for i, sel := range sels {
		if len(sel) != nb {
			return fmt.Errorf("lbs: share fetch %s: selector %d is %d bytes, want %d", file, i, len(sel), nb)
		}
	}
	if len(sels) == 0 {
		return nil
	}
	if err := s.pool.acquire(ctx); err != nil {
		return err
	}
	defer s.pool.release()
	return fetchErr(ctx, "share fetch", file, hs.shares.AnswerShares(ctx, sels, dst))
}

// checkBuffers is the reply-buffer check every fetch opens with: one buffer
// per requested answer, each able to hold a page.
func checkBuffers(op, file string, want int, dst [][]byte, pageSize int) error {
	if len(dst) != want {
		return fmt.Errorf("lbs: %s %s: %d buffers for %d answers", op, file, len(dst), want)
	}
	for i, buf := range dst {
		if len(buf) < pageSize {
			return fmt.Errorf("lbs: %s %s: buffer %d holds %d bytes, page size %d", op, file, i, len(buf), pageSize)
		}
	}
	return nil
}

// fetchErr settles a store call's error: the context's own error when it
// died (a cancelled fetch reports cancellation, not whatever the store made
// of it), the store's error under the operation and file otherwise.
func fetchErr(ctx context.Context, op, file string, err error) error {
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("lbs: %s %s: %w", op, file, err)
}

// Connect opens a client connection (one per query in the experiments),
// bound to the query's context.
func (s *Server) Connect(ctx context.Context) *Conn { return NewConn(ctx, s) }

// Stats aggregates the response-time components of Table 3 for one query.
type Stats struct {
	PIR    time.Duration // server-side PIR time for all page retrievals
	Comm   time.Duration // transfer + round-trip time on the client link
	Client time.Duration // client-side computation (measured wall clock)
	// Server is non-PIR server processing; zero for the PIR schemes, the
	// dominant cost for the obfuscation baseline (§7.3).
	Server time.Duration
	Rounds int
	// Fetches counts PIR page retrievals per file.
	Fetches map[string]int
	// HeaderBytes is the size of the directly-downloaded header.
	HeaderBytes int
}

// Response is the total response time: the paper's headline metric.
func (s Stats) Response() time.Duration { return s.PIR + s.Comm + s.Client + s.Server }

// Conn is a client's secure connection to the SCP for one query: the
// query's context and the Backend that serves it. It keeps no state of its
// own — base.Session walks the public plan over it and owns every piece of
// per-query bookkeeping: rounds, the Table 2 charges, the client clock and
// the adversary-visible transcript.
type Conn struct {
	Ctx     context.Context
	Backend Backend
}

// NewConn opens a connection over an arbitrary backend, governed by the
// query's context (nil means context.Background()).
func NewConn(ctx context.Context, b Backend) *Conn {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Conn{Ctx: ctx, Backend: b}
}

// Transcript is the adversary-visible access transcript of one query, and
// the one writer of its text: the client's own record (base.Session), the
// daemon's per-query record and CanonicalTrace all write through it, so the
// three views compare byte for byte. It records file names and page counts;
// page numbers never reach it, as the PIR layer hides them. The header is
// not in it: every client holds the same one from connect time on (§5.3).
// Two queries are indistinguishable exactly when their transcripts are
// equal.
type Transcript struct{ b strings.Builder }

// Round records the start of protocol round n (counted from 1).
func (t *Transcript) Round(n int) {
	t.b.WriteString("round ")
	t.b.WriteString(strconv.Itoa(n))
	t.b.WriteString(":\n")
}

// Fetch records the retrieval of pages pages of file, one line per page:
// how the pages were framed does not show.
func (t *Transcript) Fetch(file string, pages int) {
	for range pages {
		t.b.WriteString("  fetch ")
		t.b.WriteString(file)
		t.b.WriteByte('\n')
	}
}

// String returns the transcript text.
func (t *Transcript) String() string { return t.b.String() }

// CanonicalTrace renders the unique transcript a plan-conforming query
// produces. The networked server records its observations in the same
// format, so client- and server-side views compare directly.
func CanonicalTrace(p plan.Plan) string {
	var t Transcript
	for i, r := range p.Rounds {
		t.Round(i + 1)
		for _, f := range r.Fetches {
			t.Fetch(f.File, f.Count)
		}
	}
	return t.String()
}
