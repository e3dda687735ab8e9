package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/scheme/af"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/hy"
	"repro/internal/scheme/lm"
	"repro/internal/scheme/pi"
	"repro/internal/wire"
)

// The strong schemes served over the wire in these tests.
var strongSchemes = []string{"CI", "PI", "HY"}

// allSchemes additionally covers the weaker plan-conforming baselines; the
// Theorem 1 trace-invariance property must hold for every scheme that
// publishes a plan.
var allSchemes = []string{"CI", "PI", "HY", "AF", "LM"}

var (
	fixtureOnce sync.Once
	fixtureG    *graph.Graph
	fixtureDBs  map[string]*lbs.Database
	fixtureErr  error
)

// fixture builds one small network and a CI, PI and HY database over it,
// shared by every test and benchmark in the package.
func fixture(t testing.TB) (*graph.Graph, map[string]*lbs.Database) {
	fixtureOnce.Do(func() {
		g := gen.GeneratePreset(gen.Oldenburg, 0.12)
		dbs := map[string]*lbs.Database{}
		var err error
		if dbs["CI"], err = ci.Build(g, base.Config{}); err != nil {
			fixtureErr = fmt.Errorf("CI build: %w", err)
			return
		}
		if dbs["PI"], err = pi.Build(g, base.Config{}); err != nil {
			fixtureErr = fmt.Errorf("PI build: %w", err)
			return
		}
		if dbs["HY"], err = hy.Build(g, base.Config{}); err != nil {
			fixtureErr = fmt.Errorf("HY build: %w", err)
			return
		}
		if dbs["AF"], err = af.Build(g, base.Config{}); err != nil {
			fixtureErr = fmt.Errorf("AF build: %w", err)
			return
		}
		if dbs["LM"], err = lm.Build(g, base.Config{}); err != nil {
			fixtureErr = fmt.Errorf("LM build: %w", err)
			return
		}
		fixtureG, fixtureDBs = g, dbs
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureG, fixtureDBs
}

// startServer hosts the given databases on a loopback listener and returns
// the daemon plus its dial address. Shutdown runs on test cleanup.
func startServer(t testing.TB, names ...string) (*Server, string) {
	t.Helper()
	_, dbs := fixture(t)
	srv := New(Options{})
	for _, name := range names {
		if err := srv.Host(name, dbs[name], costmodel.Default()); err != nil {
			t.Fatal(err)
		}
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
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dialDB(t testing.TB, addr, db string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, client.Options{Database: db})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// queryScheme dispatches to the scheme protocol the service hosts — the
// same code path for in-process and remote services.
func queryScheme(ctx context.Context, svc lbs.Service, scheme string, s, d graph.NodeID, g *graph.Graph) (*base.Result, error) {
	switch scheme {
	case "CI":
		return ci.Query(ctx, svc, g.Point(s), g.Point(d))
	case "PI":
		return pi.Query(ctx, svc, g.Point(s), g.Point(d))
	case "HY":
		return hy.Query(ctx, svc, g.Point(s), g.Point(d))
	case "AF":
		return af.Query(ctx, svc, g.Point(s), g.Point(d))
	case "LM":
		return lm.Query(ctx, svc, g.Point(s), g.Point(d))
	}
	return nil, fmt.Errorf("unknown scheme %s", scheme)
}

// remoteQuery runs one query session over the wire and settles it.
func remoteQuery(c *client.Client, scheme string, s, d graph.NodeID, g *graph.Graph) (*base.Result, string, error) {
	ctx := context.Background()
	qs := c.StartQuery()
	res, err := queryScheme(ctx, qs, scheme, s, d, g)
	if err != nil {
		qs.Cancel(wire.CancelAbandon)
		return nil, "", err
	}
	trace, terr := qs.End(ctx)
	if terr != nil {
		return nil, "", terr
	}
	return res, trace, nil
}

// TestRemoteMatchesInProcess runs the same workload against the in-process
// server and over loopback TCP: answers, access traces and simulated cost
// components must be identical — the deployments share the protocol code.
func TestRemoteMatchesInProcess(t *testing.T) {
	g, dbs := fixture(t)
	_, addr := startServer(t, strongSchemes...)
	for _, scheme := range strongSchemes {
		t.Run(scheme, func(t *testing.T) {
			local, err := lbs.NewServer(dbs[scheme], costmodel.Default(), nil)
			if err != nil {
				t.Fatal(err)
			}
			c := dialDB(t, addr, scheme)
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 8; trial++ {
				s := graph.NodeID(rng.Intn(g.NumNodes()))
				d := graph.NodeID(rng.Intn(g.NumNodes()))
				want, err := queryScheme(context.Background(), local, scheme, s, d, g)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := remoteQuery(c, scheme, s, d, g)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != want.Cost {
					t.Fatalf("trial %d: remote cost %v, local %v", trial, got.Cost, want.Cost)
				}
				if len(got.Path) != len(want.Path) {
					t.Fatalf("trial %d: remote path %d nodes, local %d", trial, len(got.Path), len(want.Path))
				}
				for i := range got.Path {
					if got.Path[i] != want.Path[i] {
						t.Fatalf("trial %d: paths diverge at %d", trial, i)
					}
				}
				if got.Trace != want.Trace {
					t.Fatalf("trial %d: client traces differ:\nremote:\n%slocal:\n%s", trial, got.Trace, want.Trace)
				}
				// The simulated Table 2 components are deterministic and
				// must not depend on the deployment.
				if got.Stats.PIR != want.Stats.PIR || got.Stats.Comm != want.Stats.Comm ||
					got.Stats.Rounds != want.Stats.Rounds {
					t.Fatalf("trial %d: simulated stats diverge: remote %+v, local %+v",
						trial, got.Stats, want.Stats)
				}
			}
		})
	}
}

// TestServerTraceInvariance is Theorem 1 against the real networked path:
// the trace the server records for distinct remote queries — the complete
// adversarial view — is identical, and matches the public plan.
func TestServerTraceInvariance(t *testing.T) {
	g, dbs := fixture(t)
	srv, addr := startServer(t, strongSchemes...)
	for _, scheme := range strongSchemes {
		t.Run(scheme, func(t *testing.T) {
			c := dialDB(t, addr, scheme)
			rng := rand.New(rand.NewSource(23))
			for trial := 0; trial < 6; trial++ {
				s := graph.NodeID(rng.Intn(g.NumNodes()))
				d := graph.NodeID(rng.Intn(g.NumNodes()))
				if _, _, err := remoteQuery(c, scheme, s, d, g); err != nil {
					t.Fatal(err)
				}
			}
			// Identical endpoints must be indistinguishable from distinct
			// ones, too.
			if _, _, err := remoteQuery(c, scheme, 0, 0, g); err != nil {
				t.Fatal(err)
			}
			traces := srv.Traces(scheme)
			if len(traces) != 7 {
				t.Fatalf("server recorded %d traces, want 7", len(traces))
			}
			want := lbs.CanonicalTrace(dbs[scheme].Plan)
			for i, tr := range traces {
				if tr != want {
					t.Fatalf("server-observed trace %d deviates from the plan:\ngot:\n%swant:\n%s", i, tr, want)
				}
			}
		})
	}
}

// TestConcurrentRemoteClients floods the daemon with concurrent clients —
// each its own TCP connection — and checks every answer against Dijkstra.
func TestConcurrentRemoteClients(t *testing.T) {
	g, _ := fixture(t)
	srv, addr := startServer(t, "CI")
	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := graph.NodeID((i * 131) % g.NumNodes())
			d := graph.NodeID((i*257 + 13) % g.NumNodes())
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			res, _, err := remoteQuery(c, "CI", s, d, g)
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			want := graph.ShortestPath(g, s, d)
			if math.Abs(res.Cost-want.Cost) > 1e-9 {
				errs <- fmt.Errorf("client %d (s=%d t=%d): cost %v, Dijkstra %v", i, s, d, res.Cost, want.Cost)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	reg := srv.Telemetry()
	if conns := metricTotal(reg, "privsp_server_connections_total"); conns < clients {
		t.Errorf("connections_total = %d, want >= %d", conns, clients)
	}
	if queries := metricTotal(reg, "privsp_server_queries_total"); queries != clients {
		t.Errorf("queries_total = %d, want %d", queries, clients)
	}
}

// TestDatabaseSelection covers Hello's database resolution: explicit names,
// the sole-database default, and the ambiguous/unknown failures.
func TestDatabaseSelection(t *testing.T) {
	_, addr := startServer(t, "CI", "HY")
	c := dialDB(t, addr, "HY")
	if c.Scheme() != "HY" || c.Database() != "HY" {
		t.Errorf("selected %s/%s", c.Database(), c.Scheme())
	}
	// No name against several databases fails the dial, naming them.
	if _, err := client.Dial(addr, client.Options{}); err == nil ||
		!strings.Contains(err.Error(), "2 databases hosted, name one of [CI HY]") {
		t.Errorf("nameless dial of a two-database daemon: %v", err)
	}
	if _, err := client.Dial(addr, client.Options{Database: "nope"}); err == nil {
		t.Error("unknown database accepted")
	}

	_, soleAddr := startServer(t, "PI")
	sole := dialDB(t, soleAddr, "")
	if sole.Scheme() != "PI" || sole.Database() != "PI" {
		t.Errorf("sole database resolved to %s/%s", sole.Database(), sole.Scheme())
	}
}

// TestHelloOfAnotherVersionRefused: a client speaking the previous protocol
// version is refused at the handshake with the version error, and the
// daemon closes the connection.
func TestHelloOfAnotherVersionRefused(t *testing.T) {
	_, addr := startServer(t, "CI")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.ControlID, wire.Hello{Version: wire.ProtocolVersion - 1, Database: "CI"}.Encode()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	typ, _, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil || typ != wire.MsgError {
		t.Fatalf("reply to an old Hello: %s, %v", typ, err)
	}
	want := fmt.Sprintf("protocol version %d not supported (want %d)", wire.ProtocolVersion-1, wire.ProtocolVersion)
	if m, _ := wire.DecodeErrorMsg(payload); m.Text != want {
		t.Errorf("error text %q, want %q", m.Text, want)
	}
	if _, _, _, err := wire.ReadFrame(br, wire.DefaultMaxFrame); err == nil {
		t.Error("the connection stayed open after a refused Hello")
	}
}

// TestPingAnswersPong: a Ping on the control ID is answered by an empty
// Pong there, and a Ping that carries a payload by an Error.
func TestPingAnswersPong(t *testing.T) {
	_, addr := startServer(t, "CI")
	conn, br := rawConn(t, addr)
	for _, payload := range [][]byte{nil, {1}} {
		if err := wire.WriteFrame(conn, wire.MsgPing, wire.ControlID, payload); err != nil {
			t.Fatal(err)
		}
		typ, qid, reply, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		want := wire.MsgPong
		if len(payload) != 0 {
			want = wire.MsgError
		}
		if typ != want || qid != wire.ControlID || (typ == wire.MsgPong && len(reply) != 0) {
			t.Errorf("Ping of %d bytes: got %s of %d bytes for query %d, want %s on the control ID", len(payload), typ, len(reply), qid, want)
		}
	}
}

// TestHostRefusesDuplicateName: a second database under a hosted name is
// refused before its stores are built, so it registers no series: the
// scrape reads the same before and after, with no series for the refused
// database's Fc file under the hosted name.
func TestHostRefusesDuplicateName(t *testing.T) {
	_, dbs := fixture(t)
	srv := New(Options{Stores: lbs.XORStores})
	if err := srv.Host("CI", dbs["CI"], costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	var before, after bytes.Buffer
	if err := srv.Telemetry().WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	if err := srv.Host("CI", dbs["HY"], costmodel.Default()); err == nil || !strings.Contains(err.Error(), "already hosted") {
		t.Fatalf("Host of a duplicate name = %v, want an already-hosted refusal", err)
	}
	if err := srv.Telemetry().WritePrometheus(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatalf("refused Host changed the scrape:\n--- before\n%s--- after\n%s", before.String(), after.String())
	}
}

// TestSessionSurvivesRejectedRequests: a server-side rejection concerns one
// query only — the same connection then serves a valid query — and the
// refused query, which the daemon ended, leaves its prefix trace in the
// audit ring, never a completed query's.
func TestSessionSurvivesRejectedRequests(t *testing.T) {
	g, dbs := fixture(t)
	srv, addr := startServer(t, "CI")
	c := dialDB(t, addr, "")
	// An unknown file fails fast against the Welcome's public file table,
	// before any bytes go out.
	q1 := c.StartQuery()
	if _, err := q1.FileInfo("no-such-file"); err == nil {
		t.Fatal("unknown file described")
	}
	q1.Cancel(wire.CancelAbandon)
	// An out-of-range page of a real file is rejected by the server, which
	// ends the query there (the Cancel is a no-op), and the connection
	// serves the next one untroubled.
	q2 := c.StartQuery()
	if _, err := q2.ReadPages(context.Background(), base.FileLookup, []int{1 << 20}); err == nil {
		t.Fatal("out-of-range fetch succeeded")
	}
	q2.Cancel(wire.CancelAbandon)
	if res, _, err := remoteQuery(c, "CI", 1, 2, g); err != nil || !res.Found() {
		t.Fatalf("connection unusable after rejection: %v", err)
	}
	// The refused query is recorded as what the daemon saw of it — no
	// round was announced before its one read, so nothing — and only the
	// second query as completed. The two goroutines record in either order.
	settle(t, srv, "CI")
	traces := srv.Traces("CI")
	slices.Sort(traces)
	if len(traces) != 2 || traces[0] != "" || traces[1] != lbs.CanonicalTrace(dbs["CI"].Plan) {
		t.Fatalf("trace ring after the refusal: %q", traces)
	}
	if queries := metricTotal(srv.Telemetry(), "privsp_server_queries_total"); queries != 1 {
		t.Fatalf("queries = %d, want 1", queries)
	}
}

// TestGracefulShutdown: in-flight sessions complete, then new connections
// are refused.
func TestGracefulShutdown(t *testing.T) {
	g, dbs := fixture(t)
	srv := New(Options{})
	if err := srv.Host("CI", dbs["CI"], costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := remoteQuery(c, "CI", 0, 5, g); err != nil {
		t.Fatal(err)
	}
	c.Close() // no sessions left: shutdown drains immediately

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if _, err := client.Dial(addr, client.Options{}); err == nil {
		t.Error("dial succeeded after shutdown")
	}
}

// TestShutdownForceClosesIdleSessions: a client that sits idle past the
// drain deadline is force-disconnected rather than blocking shutdown.
func TestShutdownForceClosesIdleSessions(t *testing.T) {
	_, dbs := fixture(t)
	srv := New(Options{})
	if err := srv.Host("CI", dbs["CI"], costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

// TestRejectsVersionMismatch speaks the wire protocol directly.
func TestRejectsVersionMismatch(t *testing.T) {
	_, addr := startServer(t, "CI")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := wire.Hello{Version: 99, Database: ""}
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.ControlID, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("got %s, want Error", typ)
	}
	if em, err := wire.DecodeErrorMsg(payload); err != nil || em.Text == "" {
		t.Errorf("error message: %+v, %v", em, err)
	}
}

// benchQueries measures one full private query per iteration.
func benchQueries(b *testing.B, run func(s, d graph.NodeID) error, g *graph.Graph) {
	rng := rand.New(rand.NewSource(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		if err := run(s, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryInProcess is the baseline: the whole protocol in one
// address space.
func BenchmarkQueryInProcess(b *testing.B) {
	g, dbs := fixture(b)
	for _, scheme := range strongSchemes {
		b.Run(scheme, func(b *testing.B) {
			local, err := lbs.NewServer(dbs[scheme], costmodel.Default(), nil)
			if err != nil {
				b.Fatal(err)
			}
			benchQueries(b, func(s, d graph.NodeID) error {
				_, err := queryScheme(context.Background(), local, scheme, s, d, g)
				return err
			}, g)
		})
	}
}

// BenchmarkQueryLoopback runs the identical protocol over loopback TCP
// through the daemon — the real client/server deployment of §3.1.
func BenchmarkQueryLoopback(b *testing.B) {
	g, _ := fixture(b)
	for _, scheme := range strongSchemes {
		b.Run(scheme, func(b *testing.B) {
			_, addr := startServer(b, strongSchemes...)
			c := dialDB(b, addr, scheme)
			benchQueries(b, func(s, d graph.NodeID) error {
				_, _, err := remoteQuery(c, scheme, s, d, g)
				return err
			}, g)
		})
	}
}
