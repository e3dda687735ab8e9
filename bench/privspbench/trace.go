package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/fleet"
	"repro/internal/lbs"
	"repro/internal/scheme/af"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/hy"
	"repro/internal/scheme/lm"
	"repro/internal/scheme/pi"
	"repro/internal/wire"
	"repro/privsp"
)

// The traced pass does what privsp.RemoteServer/FleetServer.ShortestPath do
// internally — StartQuery, run the scheme protocol, End — but hands the
// scheme of every fourth query an lbs.Backend wrapped by a span recorder,
// so every call across the client boundary is timed from the benchmark's
// own files.

// span is one timed call. In memory it is kept small — a traced window of
// CI holds some 60 000 of them, and what stays live sets the collector's
// pace — and gets its identifiers when the file is written.
type span struct {
	Name       string        // query | header | round | fetch | end
	Start, End time.Duration // offsets from the tracer's epoch
	File       string        // fetch spans
	Pages      int32         // fetch spans
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// spanLine is a span as one line of trace_<workload>.jsonl.
type spanLine struct {
	Query   int     `json:"query"`  // spans of one query share it
	ID      int     `json:"span"`   // unique within the file
	Parent  int     `json:"parent"` // the span that caused this one; 0 for a query
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Scheme  string  `json:"scheme,omitempty"` // query spans
	File    string  `json:"file,omitempty"`   // fetch spans
	Pages   int32   `json:"pages,omitempty"`  // fetch spans
}

// session is the per-query surface client.Query and fleet.Query share.
type session interface {
	lbs.Backend
	lbs.Service
	End(ctx context.Context) (string, error)
	Cancel(reason uint8)
}

// tracedConn is one raw client connection of the traced pass.
type tracedConn struct {
	scheme privsp.Scheme
	start  func() session
	close  func() error
}

// dialTraced opens the same connections the -trace 0 pass uses, one layer
// lower: client.Client or fleet.Fleet instead of the privsp wrappers.
func dialTraced(ctx context.Context, d *deployment) ([]tracedConn, error) {
	var conns []tracedConn
	for _, s := range d.w.conns() {
		if d.w.Fleet {
			f, err := fleet.Dial(ctx, d.addrs, fleet.Options{})
			if err != nil {
				closeTraced(conns)
				return nil, err
			}
			conns = append(conns, tracedConn{scheme: s, start: func() session { return f.StartQuery() }, close: f.Close})
			continue
		}
		c, err := client.DialContext(ctx, d.addrs[0], client.Options{Database: string(s)})
		if err != nil {
			closeTraced(conns)
			return nil, err
		}
		conns = append(conns, tracedConn{scheme: s, start: func() session { return c.StartQuery() }, close: c.Close})
	}
	return conns, nil
}

func closeTraced(conns []tracedConn) {
	for _, c := range conns {
		c.close()
	}
}

// queryScheme dispatches a scheme's protocol over a service, like privsp.
func queryScheme(ctx context.Context, scheme privsp.Scheme, svc lbs.Service, src, dst privsp.Point) (*base.Result, error) {
	switch scheme {
	case privsp.CI:
		return ci.Query(ctx, svc, src, dst)
	case privsp.PI:
		return pi.Query(ctx, svc, src, dst)
	case privsp.HY:
		return hy.Query(ctx, svc, src, dst)
	case privsp.LM:
		return lm.Query(ctx, svc, src, dst)
	case privsp.AF:
		return af.Query(ctx, svc, src, dst)
	}
	return nil, fmt.Errorf("privspbench: scheme %q has no traced driver", scheme)
}

// tracedQuery is one completed query: its own span and its children's.
type tracedQuery struct {
	scheme   privsp.Scheme
	span     span
	children []span
}

// tracer keeps the spans of a traced pass in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu        sync.Mutex
	queries   []tracedQuery
	traces    map[privsp.Scheme]string // the one server trace each scheme may show
	violation error                    // first Theorem 1 violation
	selBytes  float64                  // selector bytes uploaded by fleet fetches
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), traces: map[privsp.Scheme]string{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// spanBackend records a span around every call a scheme makes into the
// client layer. One query drives it from one goroutine.
type spanBackend struct {
	inner    session
	t        *tracer
	children []span
	selBytes float64
	shares   int // selector shares per page: 2 behind a fleet, else 0
}

func (b *spanBackend) record(name string, start time.Duration) *span {
	b.children = append(b.children, span{Name: name, Start: start, End: b.t.now()})
	return &b.children[len(b.children)-1]
}

func (b *spanBackend) HeaderBytes(ctx context.Context) ([]byte, error) {
	start := b.t.now()
	h, err := b.inner.HeaderBytes(ctx)
	b.record("header", start)
	return h, err
}

func (b *spanBackend) NextRound(ctx context.Context) error {
	start := b.t.now()
	err := b.inner.NextRound(ctx)
	b.record("round", start)
	return err
}

func (b *spanBackend) ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error) {
	start := b.t.now()
	out, err := b.inner.ReadPages(ctx, file, pages)
	s := b.record("fetch", start)
	s.File, s.Pages = file, int32(len(pages))
	if info, ierr := b.inner.FileInfo(file); ierr == nil {
		b.selBytes += float64(b.shares * len(pages) * ((info.NumPages + 7) / 8))
	}
	return out, err
}

func (b *spanBackend) FileInfo(name string) (lbs.FileInfo, error) { return b.inner.FileInfo(name) }
func (b *spanBackend) Model() costmodel.Params                    { return b.inner.Model() }

// Connect implements lbs.Service over the recording backend.
func (b *spanBackend) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, b) }

// run returns the query driver of the traced pass. Every query travels on
// conns, whether traced(seq) wraps its session in the span recorder or not,
// so traced and untraced queries queue behind the same frames and differ by
// the recording alone.
func (t *tracer) run(d *deployment, conns []tracedConn, traced func(seq int) bool) runQuery {
	shares := 0
	if d.w.Fleet {
		shares = 2
	}
	return func(ctx context.Context, cl int, r request) (float64, time.Duration, error) {
		conn := conns[cl]
		start := t.now()
		q := conn.start()
		var (
			svc lbs.Service = q
			b   *spanBackend
		)
		if traced(r.Seq) {
			b = &spanBackend{inner: q, t: t, shares: shares}
			svc = b
		}
		res, err := queryScheme(ctx, conn.scheme, svc, d.net.NodePoint(r.Pair.Src), d.net.NodePoint(r.Pair.Dst))
		if err != nil {
			q.Cancel(wire.CancelAbandon)
			return 0, 0, err
		}
		endStart := t.now()
		trace, err := q.End(ctx)
		if err != nil {
			q.Cancel(wire.CancelAbandon)
			return 0, 0, err
		}
		if b != nil {
			b.record("end", endStart)
		}
		t.finish(conn.scheme, span{Name: "query", Start: start, End: t.now()}, b, trace)
		return res.Cost, res.Stats.Response(), nil
	}
}

// finish holds a completed query's server-observed trace against the
// scheme's first one — Theorem 1 says they are identical whatever the
// endpoints — and files its spans if it was traced (b != nil).
func (t *tracer) finish(scheme privsp.Scheme, q span, b *spanBackend, trace string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b != nil {
		t.queries = append(t.queries, tracedQuery{scheme: scheme, span: q, children: b.children})
		t.selBytes += b.selBytes
	}
	if first, ok := t.traces[scheme]; !ok {
		t.traces[scheme] = trace
	} else if first != trace && t.violation == nil {
		t.violation = fmt.Errorf("THEOREM 1 VIOLATED: two %s queries left different server traces:\n%s\n--- vs ---\n%s", scheme, first, trace)
	}
}

// budget is where a traced query's time went, in mean ms per query. A
// layer's self time is its span minus what its child spans cover.
type budget struct {
	Queries                                int
	Query, Self, Header, Round, Fetch, End float64
	SelectorBytes                          float64
}

func (t *tracer) budget() budget {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(len(t.queries))
	if n == 0 {
		return budget{Query: math.NaN()}
	}
	b := budget{Queries: len(t.queries), SelectorBytes: t.selBytes / n}
	for _, q := range t.queries {
		b.Query += q.span.ms() / n
		for _, c := range q.children {
			switch c.Name {
			case "header":
				b.Header += c.ms() / n
			case "round":
				b.Round += c.ms() / n
			case "fetch":
				b.Fetch += c.ms() / n
			case "end":
				b.End += c.ms() / n
			}
		}
	}
	b.Self = b.Query - b.Header - b.Round - b.Fetch - b.End
	return b
}

// writeJSONL writes the spans kept in memory, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	line := func(query, parent int, scheme string, s span) (int, error) {
		id++
		return id, enc.Encode(spanLine{Query: query, ID: id, Parent: parent, Name: s.Name,
			StartUs: float64(s.Start) / 1e3, EndUs: float64(s.End) / 1e3, Scheme: scheme, File: s.File, Pages: s.Pages})
	}
	for i, q := range t.queries {
		parent, err := line(i+1, 0, string(q.scheme), q.span)
		for _, c := range q.children {
			if err == nil {
				_, err = line(i+1, parent, "", c)
			}
		}
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reset drops the spans recorded so far (the warm-up's); the scheme traces
// stay, so a warm-up query is held to Theorem 1 like any other.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries, t.selBytes = nil, 0
}

// layerMetrics fills in what the window says about each layer: the
// per-query counts and times the daemon's and the client's own registries
// recorded over all of its queries (both paths run the same protocol), and
// the span budget of the traced ones.
//
// The budget splits the client's fetch span with the registry sums of the
// daemon: server.scan_ms (the store read as the daemon times it, pool and
// scheduler wait included — lbs.pool_wait_ms is shown beside it, not added)
// plus server.encode_ms, the rest being wire.residual_ms: framing, syscalls,
// loopback and the client's reader goroutine. A fleet fetch fans out to
// both replicas at once, so their sums are averaged, not added.
func layerMetrics(v values, d *deployment, delta regDelta, b budget, win, traced window) {
	n := float64(len(win.Samples))
	replicas := float64(len(d.daemons))
	perQuery := func(x float64) float64 { return ratio(x, n) }

	v["pir.scans_per_query"] = perQuery(delta.counter("privsp_pir_scans_total"))
	v["pir.pages_scanned_per_query"] = perQuery(delta.counter("privsp_pir_pages_scanned_total"))

	v["lbs.scans_per_fetch"] = ratio(delta.counter("privsp_scan_sched_scans_total"), delta.counter("privsp_scan_sched_fetches_total"))
	v["lbs.pool_wait_ms"] = perQuery(delta.histMs("privsp_pool_wait_seconds")) / replicas
	flushes := delta.counter("privsp_scan_flush_total")
	lone := delta.counter("privsp_scan_flush_total", `reason="lone"`)
	chain := delta.counter("privsp_scan_flush_total", `reason="chain"`)
	timer := delta.counter("privsp_scan_flush_total", `reason="window"`)
	v["lbs.flush_lone_share"] = ratio(lone, flushes)
	v["lbs.flush_chain_share"] = ratio(chain, flushes)
	v["lbs.flush_window_share"] = ratio(timer, flushes)
	v["lbs.flush_other_share"] = ratio(flushes-lone-chain-timer, flushes)

	v["wire.bytes_up_per_query"] = perQuery(delta.counter("privsp_server_bytes_read_total"))
	v["wire.bytes_down_per_query"] = perQuery(delta.counter("privsp_server_bytes_written_total"))
	v["wire.frames_per_query"] = perQuery(delta.counter("privsp_server_frames_read_total") + delta.counter("privsp_server_frames_written_total"))

	v["client.roundtrips_per_query"] = perQuery(delta.histCount("privsp_client_roundtrip_seconds"))
	v["client.retries_per_query"] = perQuery(delta.counter("privsp_retries_total"))
	v["server.query_ms"] = delta.histMean("privsp_server_query_seconds") / 1e6
	v["server.fetch_batch_pages"] = delta.histMean("privsp_server_fetch_batch_size")
	shed := delta.counter("privsp_shed_total")
	v["server.shed_share"] = ratio(shed, shed+delta.counter("privsp_server_queries_total"))

	v["fleet.fanout_ms"] = delta.histMean("privsp_fleet_fanout_seconds") / 1e6
	v["fleet.fanouts_per_query"] = perQuery(delta.histCount("privsp_fleet_fanout_seconds"))
	v["fleet.selector_bytes_per_query"] = b.SelectorBytes
	v["fleet.replica_scan_ms"] = 0
	if d.w.Fleet {
		v["fleet.replica_scan_ms"] = delta.histMean("privsp_server_scan_seconds") / 1e6
	}
	degraded := delta.counter("privsp_fleet_degraded_queries_total")
	v["fleet.degraded_share"] = ratio(degraded, degraded+delta.counter("privsp_fleet_queries_total"))

	scan := perQuery(delta.histMs("privsp_server_scan_seconds")) / replicas
	encode := perQuery(delta.histMs("privsp_server_encode_seconds")) / replicas
	residual := math.Max(0, b.Fetch-scan-encode)
	v["scheme.self_ms"] = b.Self
	v["client.header_ms"], v["client.round_ms"] = b.Header, b.Round
	v["client.fetch_ms"], v["client.end_ms"] = b.Fetch, b.End
	v["server.scan_ms"], v["server.encode_ms"], v["wire.residual_ms"] = scan, encode, residual

	// The layers must add up to what the generator's own clock saw for the
	// same queries; a gap means a span or a registry sum counts time twice
	// or misses some.
	var wall []float64
	for _, s := range traced.Samples {
		if s.ok() {
			wall = append(wall, float64(s.Latency-s.Late)/1e6)
		}
	}
	layers := b.Self + b.Header + b.Round + b.End + scan + encode + residual
	v["trace.budget_gap_share"] = math.Abs(mean(wall)-layers) / mean(wall)
}
