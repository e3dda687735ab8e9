// Package privsp is the public API of the reproduction of Mouratidis & Yiu,
// "Shortest Path Computation with No Information Leakage" (PVLDB 5(8),
// 2012). It computes shortest paths on road networks hosted by an untrusted
// location-based service such that the service learns nothing about the
// query — not the source, destination, path, length, or even whether two
// queries are identical.
//
// Typical use:
//
//	net := privsp.Generate(privsp.Oldenburg, 0.1, 1)       // or LoadEdgeList
//	db, _ := privsp.Build(net, privsp.Config{Scheme: privsp.CI})
//	srv, _ := privsp.Serve(db)
//	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
//	defer cancel()
//	res, _ := srv.ShortestPath(ctx, privsp.Point{X: 3, Y: 4}, privsp.Point{X: 40, Y: 38})
//	fmt.Println(res.Cost, res.Stats.Response())
//
// Every query takes a context: cancelling it (or letting its deadline
// expire) aborts the query at the next PIR round boundary, returns ctx.Err()
// to the caller, and — for remote queries — tells the daemon to abandon the
// server-side work. Because aborts happen only between rounds, the trace a
// cancelled query leaves at the service is a prefix of the one full-query
// trace: cancellation leaks nothing (Theorem 1 is preserved).
//
// Deployments scale from in-process (Serve) through one remote daemon
// (DialContext, cmd/privspd) to a replica fleet (DialFleet): two or more
// daemons in -replica-role each receive one XOR PIR selector share per
// page read and the page is reconstructed only client-side, making the
// two-server PIR model real — information-theoretic privacy as long as
// the replicas do not collude, with health-checked failover to the
// replicas still up and a refusal, never a single-server fallback, when
// fewer than two are. All three satisfy the same PathService interface.
// A remote connection carries queries only: a daemon's serving counters
// are read from its admin endpoint (privspd -admin, GET /metrics), never
// through this package.
//
// Four strongly private schemes are provided — CI (small database, more PIR
// page fetches), PI (one-page-fast queries, huge index), HY (tunable hybrid)
// and PIStar (clustered PI, tunable) — plus the paper's padded baselines LM
// and AF. Every scheme runs a fixed public plan, so the service learns
// nothing; the obfuscation baseline of §7.3, which leaks its candidate sets,
// lives only in the experiment harness.
package privsp

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/netio"
	"repro/internal/pagefile"
	"repro/internal/plan"
	"repro/internal/scheme/af"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/hy"
	"repro/internal/scheme/lm"
	"repro/internal/scheme/pi"
	"repro/internal/wire"
)

// Point is a Euclidean location on the road network.
type Point = geom.Point

// NodeID identifies a network node.
type NodeID = graph.NodeID

// Network is a weighted road network.
type Network struct {
	G *graph.Graph
}

// Preset names one of the paper's Table 1 road networks.
type Preset = gen.Preset

// The six Table 1 networks.
const (
	Oldenburg    = gen.Oldenburg
	Germany      = gen.Germany
	Argentina    = gen.Argentina
	Denmark      = gen.Denmark
	India        = gen.India
	NorthAmerica = gen.NorthAmerica
)

// Generate synthesizes a preset network at the given scale in (0, 1]. The
// real Table 1 datasets are not redistributable, so the network is
// synthetic with their node and edge counts (times scale), sparsity and
// planar, Euclidean-weighted layout (see package gen).
func Generate(p Preset, scale float64, seed int64) *Network {
	spec := gen.PresetSpec(p, scale)
	spec.Seed = seed
	return &Network{G: gen.Generate(spec)}
}

// LoadNetwork parses a road network from the plain two-file edge-list
// format the original datasets use ("id x y" node lines, "id from to
// weight" edge lines); see internal/netio for the grammar. The network is
// undirected: each edge line is a road both ways, and a road listed more
// than once, in either direction, keeps its least weight.
func LoadNetwork(nodes, edges io.Reader) (*Network, error) {
	g, err := netio.ReadNetwork(nodes, edges)
	if err != nil {
		return nil, err
	}
	return &Network{G: g}, nil
}

// SaveNetwork writes the network in the same two-file format.
func (n *Network) SaveNetwork(nodes, edges io.Writer) error {
	return netio.WriteNetwork(n.G, nodes, edges)
}

// NewNetwork starts an empty network for manual construction. Networks are
// undirected, as in the paper's experiments: §3.1 allows directed edges,
// this reproduction does not, and one-way streets are a parked roadmap item.
func NewNetwork() *Network { return &Network{G: graph.NewUndirected()} }

// AddNode appends a node and returns its ID. Coordinates should be unique
// per axis: CI, PI, PIStar, HY and LM partition the network with cuts that
// assume so, and Build fails, naming the node and its point, where a cut
// falls between two nodes that share the split coordinate (as on a grid).
// AF's partition splits around shared coordinates and builds.
func (n *Network) AddNode(p Point) NodeID { return n.G.AddNode(p) }

// AddRoad inserts a road segment between u and v, drivable both ways at the
// given positive cost. A road already present between u and v keeps the
// lesser of the two costs and is not counted again in NumEdges.
func (n *Network) AddRoad(u, v NodeID, cost float64) error { return n.G.AddEdge(u, v, cost) }

// NumNodes returns |V|.
func (n *Network) NumNodes() int { return n.G.NumNodes() }

// NumEdges returns |E|.
func (n *Network) NumEdges() int { return n.G.NumEdges() }

// NodePoint returns the coordinates of a node.
func (n *Network) NodePoint(v NodeID) Point { return n.G.Point(v) }

// Scheme selects a private shortest path scheme or baseline.
type Scheme = base.Scheme

// The schemes of the paper (§5, §6) and its baselines (§4).
const (
	CI     = base.CI
	PI     = base.PI
	PIStar = base.PIStar
	HY     = base.HY
	LM     = base.LM
	AF     = base.AF
)

// Config selects and tunes a scheme: the scheme, the page size, the
// ablation switches of Figures 8–9, each scheme's tuning knob (PI*'s
// ClusterPages, HY's Threshold, LM's Landmarks, AF's Regions) and the
// Seed, DeriveQueries and SafetyMargin LM's and AF's plans are derived
// with. A zero field selects its default — PageSize 4096 (Table 2),
// ClusterPages 2, Threshold 40, Landmarks 5, Regions 8, Seed 1,
// DeriveQueries 512, SafetyMargin 1.25 — so Config{Scheme: s} builds the
// database of the paper's experiments; a negative field, or a PIStar
// ClusterPages of 1, fails Build naming the field.
type Config = base.Config

// schemes is the one list of the schemes privsp builds and serves.
var schemes = map[Scheme]struct {
	build func(*graph.Graph, Config) (*lbs.Database, error)
	query func(ctx context.Context, svc lbs.Service, src, dst Point) (*Result, error)
}{
	CI:     {ci.Build, ci.Query},
	PI:     {pi.Build, pi.Query},
	PIStar: {pi.Build, pi.Query},
	HY:     {hy.Build, hy.Query},
	LM:     {lm.Build, lm.Query},
	AF:     {af.Build, af.Query},
}

// Database is a built, servable database. Databases come from Build (in
// memory) or Open (backed by a persistent container); both serve through
// identical code. Close a database loaded with Open when done with it.
type Database struct {
	db        *lbs.Database
	container *pagefile.Container // non-nil iff loaded by Open
}

// Build pre-processes a network under the chosen scheme.
func Build(n *Network, cfg Config) (*Database, error) {
	s, ok := schemes[cfg.Scheme]
	if !ok {
		return nil, fmt.Errorf("privsp: unknown scheme %q", cfg.Scheme)
	}
	db, err := s.build(n.G, cfg)
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// TotalBytes reports the database size (the space metric of the paper's
// evaluation).
func (d *Database) TotalBytes() int64 { return d.db.TotalBytes() }

// Save writes the built database as a versioned single-file container
// (conventionally ".psdb"): scheme, header, query plan and every page file,
// each data region checksummed. A saved database re-opens with Open in
// milliseconds — the build-once / serve-many workflow that sidesteps the
// paper's multi-hour preprocessing on every daemon start.
func (d *Database) Save(path string) error {
	enc := pagefile.NewEnc(256)
	d.db.Plan.Encode(enc)
	return pagefile.WriteContainer(path, pagefile.ContainerSpec{
		Scheme: d.db.Scheme,
		Header: d.db.Header,
		Plan:   enc.Bytes(),
		Files:  d.db.Files,
	})
}

// OpenOption tunes Open.
type OpenOption func(*[]pagefile.ContainerOption)

// WithoutDataVerify skips the checksum scan of the page data at open time
// (metadata is always verified). Right for containers larger than a
// startup disk pass should cost, on storage verified out of band; a
// corrupt page then goes unnoticed until a query decodes it.
func WithoutDataVerify() OpenOption {
	return func(opts *[]pagefile.ContainerOption) {
		*opts = append(*opts, pagefile.WithoutDataVerify())
	}
}

// Open loads a database container written by Save. Pages are served from a
// read-only mapping of the file, so the operating system pages them in on
// demand, the database may exceed RAM, and no preprocessing is redone; by
// default opening costs one sequential scan of the file to verify its
// checksums (WithoutDataVerify skips that). The client Result and the
// server-observed trace are identical to serving the freshly built
// database. Close the returned database when done, and replace a served
// container only by renaming a new file over it, as Save does: a file
// rewritten or truncated under its mapping faults the process.
func Open(path string, opts ...OpenOption) (*Database, error) {
	var copts []pagefile.ContainerOption
	for _, opt := range opts {
		opt(&copts)
	}
	c, err := pagefile.OpenContainer(path, copts...)
	if err != nil {
		return nil, err
	}
	if _, ok := schemes[Scheme(c.Scheme)]; !ok {
		c.Close()
		return nil, fmt.Errorf("privsp: %s holds unsupported scheme %q", path, c.Scheme)
	}
	pl, err := plan.Decode(pagefile.NewDec(c.Plan))
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("privsp: %s: %w", path, err)
	}
	files := make([]pagefile.Reader, len(c.Files))
	for i, f := range c.Files {
		files[i] = f
	}
	return &Database{
		db:        &lbs.Database{Scheme: c.Scheme, Header: c.Header, Files: files, Plan: pl},
		container: c,
	}, nil
}

// Close unmaps the container backing a database returned by Open. It is a
// no-op for databases built in memory. Servers must not be queried after
// their database is closed.
func (d *Database) Close() error {
	if d.container != nil {
		return d.container.Close()
	}
	return nil
}

// Plan renders the public query plan.
func (d *Database) Plan() string { return d.db.Plan.String() }

// Scheme returns the database's scheme.
func (d *Database) Scheme() Scheme { return Scheme(d.db.Scheme) }

// LBS exposes the underlying page-file database for hosting by the
// networked daemon (internal/server).
func (d *Database) LBS() *lbs.Database { return d.db }

// PlanPIRAccesses returns the fixed number of PIR page retrievals every
// query performs.
func (d *Database) PlanPIRAccesses() int { return d.db.Plan.TotalPIRAccesses() }

// Server answers shortest path queries on a built database under the
// simulated deployment of §7.1 (IBM 4764 SCP, Table 2 disk and 3G link).
type Server struct {
	scheme Scheme
	lbsSrv *lbs.Server
}

// Serve hosts a database with the Table 2 cost model.
func Serve(d *Database) (*Server, error) {
	srv, err := lbs.NewServer(d.db, costmodel.Default(), nil)
	if err != nil {
		return nil, err
	}
	return &Server{scheme: d.Scheme(), lbsSrv: srv}, nil
}

// Result is the outcome of one query.
type Result = base.Result

// Stats carries the response-time components of Table 3.
type Stats = lbs.Stats

// QueryOption tunes one ShortestPath call.
type QueryOption func(*queryOptions)

type queryOptions struct {
	serverTrace *string
}

// WithServerTrace captures the service-observed access trace — the actual
// adversarial view — into dst when the query succeeds. For remote queries
// this is the trace the daemon recorded; for in-process queries it equals
// the client transcript (the deployments share the protocol code). Theorem
// 1 holds exactly when this is identical across all queries.
func WithServerTrace(dst *string) QueryOption {
	return func(o *queryOptions) { o.serverTrace = dst }
}

func applyOptions(opts []QueryOption) queryOptions {
	var o queryOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// deliver fills the caller's option destinations from a completed query.
func (o queryOptions) deliver(serverTrace string) {
	if o.serverTrace != nil {
		*o.serverTrace = serverTrace
	}
}

// ShortestPath runs one private query from s to t (arbitrary coordinates;
// they are snapped to the nearest node of their host regions). ctx bounds
// the query: cancellation or an expired deadline aborts it at the next PIR
// round boundary and returns ctx.Err(); a PIR read still queued on the
// worker pool is abandoned, freeing the worker.
func (s *Server) ShortestPath(ctx context.Context, src, dst Point, opts ...QueryOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := applyOptions(opts)
	res, err := queryScheme(ctx, s.scheme, s.lbsSrv, src, dst)
	if err != nil {
		return nil, err
	}
	// In-process, the service's view is the client transcript itself.
	o.deliver(res.Trace)
	return res, nil
}

// queryScheme dispatches a scheme's query protocol over an arbitrary
// lbs.Service — the in-process server, one daemon connection, or a replica
// fleet; the protocol code cannot tell which deployment it runs against.
func queryScheme(ctx context.Context, scheme Scheme, svc lbs.Service, src, dst Point) (*Result, error) {
	s, ok := schemes[scheme]
	if !ok {
		return nil, fmt.Errorf("privsp: unknown scheme %q", scheme)
	}
	return s.query(ctx, svc, src, dst)
}

// PathService is the query surface shared by the in-process Server and the
// remote client returned by Dial: the same scheme protocol code runs behind
// both. The context governs the whole query (deadline and cancellation,
// honored at PIR round boundaries); the Result carries the query's stats
// and client transcript, and WithServerTrace captures the service-observed
// trace without any per-connection state, so one service value serves
// concurrent queries.
type PathService interface {
	ShortestPath(ctx context.Context, src, dst Point, opts ...QueryOption) (*Result, error)
}

var (
	_ PathService = (*Server)(nil)
	_ PathService = (*RemoteServer)(nil)
)

// RemoteServer is a connection to a privspd daemon. It satisfies the same
// query surface as the in-process Server; the scheme's multi-round PIR
// protocol runs over the wire, and the daemon observes only the public
// plan's access pattern.
//
// One RemoteServer multiplexes any number of concurrent queries over its
// single TCP connection — every wire frame carries a query ID — so calling
// ShortestPath from many goroutines is safe and the daemon executes their
// batched PIR reads in parallel on its worker pools.
type RemoteServer struct {
	c      *client.Client
	scheme Scheme
}

// Dial connects to a privspd daemon serving a single database, bounded by
// the default connect timeout: an unresponsive address fails the dial
// rather than blocking forever.
func Dial(addr string) (*RemoteServer, error) { return DialDatabase(addr, "") }

// DialContext connects to a privspd daemon serving a single database. ctx
// governs the TCP connect and the protocol handshake; without a deadline of
// its own, a default 10 s budget applies.
func DialContext(ctx context.Context, addr string) (*RemoteServer, error) {
	return DialDatabaseContext(ctx, addr, "")
}

// DialDatabase connects with the default connect timeout and selects a
// hosted database by name; see DialDatabaseContext.
func DialDatabase(addr, database string) (*RemoteServer, error) {
	return DialDatabaseContext(context.Background(), addr, database)
}

// DialDatabaseContext connects to a privspd daemon and selects a hosted
// database by name (daemons may host several; empty selects the sole one).
// Dialing a multi-database daemon without a name fails, naming the
// databases it hosts. ctx bounds the connect and handshake; without a deadline,
// the default 10 s budget applies, so an address that accepts TCP but never
// answers the handshake still fails promptly.
func DialDatabaseContext(ctx context.Context, addr, database string) (*RemoteServer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Transient connect failures (a restarting daemon, a full accept
	// backlog) get a couple of jittered retries; daemon-side rejections and
	// context aborts fail immediately (see dialRetryable).
	var c *client.Client
	err := dialRetry.Do(ctx, dialRetryable, func(attempt int) error {
		if attempt > 0 {
			client.CountDialRetry()
		}
		var derr error
		c, derr = client.DialContext(ctx, addr, client.Options{Database: database})
		return derr
	})
	if err != nil {
		return nil, err
	}
	scheme := Scheme(c.Scheme())
	if _, ok := schemes[scheme]; !ok {
		c.Close()
		return nil, fmt.Errorf("privsp: daemon hosts unsupported scheme %q", scheme)
	}
	return &RemoteServer{c: c, scheme: scheme}, nil
}

// Scheme returns the scheme of the connected database.
func (r *RemoteServer) Scheme() Scheme { return r.scheme }

// Database returns the name of the connected database.
func (r *RemoteServer) Database() string { return r.c.Database() }

// ShortestPath runs one private query over the wire, multiplexed on the
// shared connection by a fresh query ID. The Result's Stats and Trace are
// the client-side view (identical to the in-process deployment); the
// WithServerTrace option captures what the daemon actually observed.
//
// Cancelling ctx aborts the query at the next PIR round boundary and ships
// a CANCEL frame so the daemon abandons the server-side work — a read
// queued on the worker pool is given up, freeing the worker. The daemon
// records the cancelled query's partial trace (always a prefix of a full
// trace) and counts it as cancelled or deadline-exceeded.
func (r *RemoteServer) ShortestPath(ctx context.Context, src, dst Point, opts ...QueryOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := applyOptions(opts)
	// A query the daemon sheds with Busy is retried whole: each attempt is
	// a fresh query session with freshly drawn PIR randomness, never a
	// resent round (see retryBusy).
	var res *Result
	err := retryBusy(ctx, func() (err error) {
		res, err = settleQuery(ctx, r.scheme, r.c.StartQuery(), src, dst, o)
		return err
	})
	return res, err
}

// ErrPlanOverflow is matched by errors.Is when a query needed more
// retrievals than the database's public plan allows. Only LM and AF, whose
// plans are derived from a sampled workload, hit it on a sound database (a
// rare endpoint pair; rebuild with a larger Config.DeriveQueries or
// Config.SafetyMargin).
// The service cannot tell such a query from any other: it receives the
// whole canonical plan and the query ends as a completed one.
var ErrPlanOverflow = base.ErrPlanOverflow

// querySession is one query's session on a daemon connection or a fleet.
type querySession interface {
	lbs.Service
	End(ctx context.Context) (string, error)
	Cancel(reason uint8)
}

// settleQuery runs the scheme protocol over a remote query session and
// settles the session. A context abort is a deliberate cancellation the
// daemon records (the partial trace is what the adversary saw) and counts;
// a request the daemon refused already ended the query there, recorded as
// far as it went, so its Cancel is a no-op; any other failure abandons the
// query and the daemon discards it. The connection stays usable either
// way. The one failure that must NOT show is a plan overflow: it depends on
// the endpoints, and the session has already sent the full canonical plan,
// so the query is completed exactly as on success before the error is
// returned.
//
// The batch that sends the plan's last quota carries the query's EndQuery,
// so once it is answered the query is complete on the daemon: End returns
// the trace that batch brought back. A query that fails client-side after
// that batch — a page that does not decode, a search that fails — was
// therefore recorded and counted by the daemon as a completed query, with
// the canonical trace every query leaves, and the Cancel below is a no-op
// for it. Only a failure before the last batch is a cancellation or an
// abandon on the daemon.
func settleQuery(ctx context.Context, scheme Scheme, qs querySession, src, dst Point, o queryOptions) (*Result, error) {
	res, qerr := queryScheme(ctx, scheme, qs, src, dst)
	if qerr != nil && !errors.Is(qerr, ErrPlanOverflow) {
		qs.Cancel(cancelReason(ctx, qerr))
		return nil, qerr
	}
	// The returned trace is the daemon's adversarial view of this query.
	trace, terr := qs.End(ctx)
	if terr != nil {
		qs.Cancel(cancelReason(ctx, terr))
		return nil, terr
	}
	if qerr != nil {
		return nil, qerr
	}
	o.deliver(trace)
	return res, nil
}

// cancelReason classifies a failed query for the daemon's accounting.
func cancelReason(ctx context.Context, err error) uint8 {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		return wire.CancelDeadline
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		return wire.CancelContext
	default:
		return wire.CancelAbandon
	}
}

// Close tears down the connection to the daemon.
func (r *RemoteServer) Close() error { return r.c.Close() }
