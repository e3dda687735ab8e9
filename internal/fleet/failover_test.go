package fleet_test

import (
	"context"
	"errors"
	"math/bits"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fleet"
	"repro/internal/lbs"
	"repro/internal/server"
	"repro/internal/wire"
)

// fullQuery runs the canonical query shape of this test file — three
// single-page reads — and returns the first page and the replica trace.
// A query that opens with a read and dies in the next leaves a PROPER,
// non-empty prefix behind: the survivor answers its share of the read
// that dies, so it records two reads of the three.
func fullQuery(t testing.TB, f *fleet.Fleet, page int) ([]byte, string) {
	t.Helper()
	ctx := context.Background()
	q := f.StartQuery()
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := q.ReadPages(ctx, "pages", []int{page})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{(page + 1) % failN, (page + 2) % failN} {
		if _, err := q.ReadPages(ctx, "pages", []int{p}); err != nil {
			t.Fatal(err)
		}
	}
	trace, err := q.End(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return got[0], trace
}

// failN/failPS shape the raw database fullQuery and TestFailover share.
const failN, failPS = 32, 16

// startReplicaAt hosts db on a replica-role XOR-PIR daemon listening on
// addr, retrying the bind while a daemon that just died there lets go of
// it; cap, when non-nil, captures its stores. The caller shuts it down.
func startReplicaAt(t *testing.T, addr string, db *lbs.Database, cap *capture) (*server.Server, string) {
	t.Helper()
	opts := server.Options{ReplicaRole: true, Stores: lbs.XORStores}
	if cap != nil {
		opts.Stores = cap.factory
	}
	s := server.New(opts)
	if err := s.Host("RAW", db, costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	var ln net.Listener
	for i := 0; i < 50; i++ {
		var lerr error
		if ln, lerr = net.Listen("tcp", addr); lerr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ln == nil {
		t.Fatalf("could not bind %s", addr)
	}
	go s.Serve(ln)
	return s, ln.Addr().String()
}

// TestFailover kills one replica mid-query and walks the fleet through
// the full failure arc: the in-flight query fails cleanly with a typed
// ErrReplicaDown naming the dead replica while the surviving replica
// keeps its prefix trace; the breaker opens; the next query is refused
// with the dead replica named, and the survivor receives nothing of it —
// no share, no trace, because both shares on one server would hand it
// the page; and once a daemon listens on the address again, the prober
// closes the breaker and queries pair up again.
func TestFailover(t *testing.T) {
	pages := rawPages(failN, failPS, 11)
	db := rawDB(pages, failPS)
	capA := &capture{}
	srvA, addrA := startDaemon(t, "RAW", db, true, true, capA)

	// Replica B is managed by hand — it dies and is reborn mid-test.
	newB := func(addr string) (*server.Server, string) { return startReplicaAt(t, addr, db, nil) }
	srvB, addrB := newB("127.0.0.1:0")

	var mu sync.Mutex
	var logs []string
	f := dialProbing(t, []string{addrA, addrB}, fleet.Options{
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, format)
			mu.Unlock()
		},
	}, 25*time.Millisecond)
	ctx := context.Background()

	// Healthy paired query; its trace is the canonical full trace.
	got, full := fullQuery(t, f, 3)
	if !equalBytes(got, pages[3]) {
		t.Fatal("paired query returned wrong page")
	}

	// Kill replica B, then run a query that spans the death: the first
	// page read lands on both replicas (A records it), then the second
	// hits the dead socket.
	q := f.StartQuery()
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.ReadPages(ctx, "pages", []int{3}); err != nil {
		t.Fatal(err)
	}
	// Shutdown force-closes the fleet's held connection at the context
	// deadline (the client side keeps it open), so the deadline error is
	// the expected outcome, not a failure.
	sctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	srvB.Shutdown(sctx)
	cancel()
	_, rerr := q.ReadPages(ctx, "pages", []int{5})
	if !errors.Is(rerr, fleet.ErrReplicaDown) {
		t.Fatalf("read through dead replica: err = %v, want ErrReplicaDown", rerr)
	}
	var rd *fleet.ReplicaDownError
	if !errors.As(rerr, &rd) || rd.Addr != addrB {
		t.Fatalf("err = %v, want *ReplicaDownError naming %s", rerr, addrB)
	}
	// Settle the query the way scheme code does on a context-style abort:
	// the survivor records the partial trace — a proper prefix of the
	// canonical one (here: the lines of the two reads).
	q.Cancel(wire.CancelContext)
	deadline := time.Now().Add(5 * time.Second)
	var partial string
	for time.Now().Before(deadline) {
		if trs := srvA.Traces("RAW"); len(trs) >= 2 {
			partial = trs[len(trs)-1]
			break
		}
		time.Sleep(time.Millisecond)
	}
	if partial == "" || partial == full || !strings.HasPrefix(full, partial) {
		t.Fatalf("survivor trace after cancel = %q, want a proper prefix of %q", partial, full)
	}

	// The breaker opened synchronously.
	st := f.Status()
	if len(st.Replicas) != 2 || !st.Replicas[0].Up || st.Replicas[1].Up {
		t.Fatalf("status after death = %+v, want A up / B down", st.Replicas)
	}
	if st.Replicas[1].Trips != 1 || st.Replicas[1].LastErr == nil {
		t.Fatalf("replica B breaker = %+v, want 1 trip with an error", st.Replicas[1])
	}

	// Refusal: with one of two replicas up, the next query fails before
	// any frame leaves the client, naming the dead replica, and every call
	// on it repeats that error.
	sharesBefore, tracesBefore := len(capA.stores[0].shares()), len(srvA.Traces("RAW"))
	refused := f.StartQuery()
	if !errors.As(refused.Err(), &rd) || rd.Addr != addrB {
		t.Fatalf("query with one replica up: err = %v, want *ReplicaDownError naming %s", refused.Err(), addrB)
	}
	if _, err := refused.HeaderBytes(ctx); !errors.Is(err, fleet.ErrReplicaDown) {
		t.Fatalf("refused query header: err = %v, want ErrReplicaDown", err)
	}
	if _, err := refused.ReadPages(ctx, "pages", []int{7}); !errors.Is(err, fleet.ErrReplicaDown) {
		t.Fatalf("refused query read: err = %v, want ErrReplicaDown", err)
	}
	if _, err := refused.End(ctx); !errors.Is(err, fleet.ErrReplicaDown) {
		t.Fatalf("refused query end: err = %v, want ErrReplicaDown", err)
	}
	refused.Cancel(wire.CancelContext)
	if got := len(capA.stores[0].shares()); got != sharesBefore {
		t.Fatalf("survivor answered %d shares of a refused query", got-sharesBefore)
	}
	if got := len(srvA.Traces("RAW")); got != tracesBefore {
		t.Fatalf("survivor recorded %d traces for a refused query", got-tracesBefore)
	}
	mu.Lock()
	for _, l := range logs {
		if strings.Contains(l, "DEGRADED") {
			t.Errorf("fleet logged a single-server demotion: %q", l)
		}
	}
	mu.Unlock()

	// Rebirth: a fresh daemon on the same address; the prober re-dials and
	// closes the breaker.
	srvB2, _ := newB(addrB)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srvB2.Shutdown(ctx)
	})
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := f.Status(); st.Replicas[1].Up {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := f.Status(); !st.Replicas[1].Up {
		t.Fatal("prober never closed the breaker after the replica came back")
	}

	// Paired again: answers and trace match the pre-failure query.
	got, trace := fullQuery(t, f, 3)
	if !equalBytes(got, pages[3]) || trace != full {
		t.Fatal("post-recovery paired query diverged from the pre-failure one")
	}
	// Queries 1 and 2 started paired, the post-recovery one too; the
	// refused query started nowhere.
	if st := f.Status(); st.PairedQueries != 3 {
		t.Fatalf("final count: paired %d, want 3", st.PairedQueries)
	}
	f.Close() // release the held connections so the daemons drain at once

}

// TestFailoverThreeReplicas: with three replicas a fleet survives one
// death without ever sending both shares to one server. While all three
// are up, the rotation gives each query the next pair, so each replica
// answers two of three queries. Once a replica's breaker opens, every
// query still succeeds paired: each survivor answers exactly one share of
// each query, the dead replica receives nothing, and no survivor ever
// holds two shares that XOR to a unit vector (which would name the page).
func TestFailoverThreeReplicas(t *testing.T) {
	const n, ps, queries = 64, 16, 40
	pages := rawPages(n, ps, 13)
	db := rawDB(pages, ps)
	var caps [3]*capture
	var srvs [3]*server.Server
	var addrs []string
	for i := range caps {
		caps[i] = &capture{}
		var addr string
		srvs[i], addr = startDaemon(t, "RAW", db, true, true, caps[i])
		addrs = append(addrs, addr)
	}
	f := dialProbing(t, addrs, fleet.Options{}, 25*time.Millisecond)
	shares := func(i int) int { return len(caps[i].stores[0].shares()) }

	// Healthy rotation: queries start at replicas 0, 1, 2 in turn, so the
	// pairs are {0,1}, {1,2}, {2,0}.
	for i := 0; i < 3; i++ {
		if got, _ := readOne(t, f, i); !equalBytes(got, pages[i]) {
			t.Fatalf("healthy query %d returned the wrong page", i)
		}
	}
	for i := range caps {
		if got := shares(i); got != 2 {
			t.Fatalf("replica %d answered %d shares of 3 rotated queries, want 2", i, got)
		}
	}

	// Kill replica 1 and wait for the prober to open its breaker.
	sctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	srvs[1].Shutdown(sctx)
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for f.Status().Replicas[1].Up && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if f.Status().Replicas[1].Up {
		t.Fatal("prober never opened the dead replica's breaker")
	}

	before := [3]int{shares(0), shares(1), shares(2)}
	deadTraces := len(srvs[1].Traces("RAW"))
	for i := 0; i < queries; i++ {
		if got, _ := readOne(t, f, i%n); !equalBytes(got, pages[i%n]) {
			t.Fatalf("query %d with one replica down returned the wrong page", i)
		}
	}
	for _, i := range []int{0, 2} {
		if got := shares(i) - before[i]; got != queries {
			t.Errorf("survivor %d answered %d shares of %d queries, want one per query", i, got, queries)
		}
	}
	if shares(1) != before[1] || len(srvs[1].Traces("RAW")) != deadTraces {
		t.Error("the dead replica received part of a query")
	}
	if st := f.Status(); st.PairedQueries != 3+queries {
		t.Errorf("paired queries = %d, want %d", st.PairedQueries, 3+queries)
	}

	// No survivor holds a pair of shares one bit apart.
	for _, i := range []int{0, 2} {
		log := caps[i].stores[0].shares()
		for a := range log {
			for b := a + 1; b < len(log); b++ {
				weight := 0
				for k := range log[a] {
					weight += bits.OnesCount8(log[a][k] ^ log[b][k])
				}
				if weight == 1 {
					t.Fatalf("survivor %d holds shares %d and %d one bit apart: the page index leaks", i, a, b)
				}
			}
		}
	}
}

// TestRedialKeepsDivergedReplicaDown: a replica that dies and comes back
// serving another build of the database — same file table, different
// header — is re-dialed by the prober and refused: its breaker stays open,
// and the queries that follow pair on the two replicas that agree, so the
// diverged one receives no share and records no trace.
func TestRedialKeepsDivergedReplicaDown(t *testing.T) {
	const n, ps, queries = 16, 8, 6
	pages := rawPages(n, ps, 17)
	db := rawDB(pages, ps)
	_, addrA := startDaemon(t, "RAW", db, true, true, nil)
	_, addrB := startDaemon(t, "RAW", db, true, true, nil)
	srvC, addrC := startReplicaAt(t, "127.0.0.1:0", db, nil)
	f := dialProbing(t, []string{addrA, addrB, addrC}, fleet.Options{}, 25*time.Millisecond)

	waitStatus := func(what string, cond func(fleet.ReplicaStatus) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if cond(f.Status().Replicas[2]) {
				return
			}
		}
		t.Fatalf("replica C never %s: %+v", what, f.Status().Replicas[2])
	}

	// C dies; the prober's ping opens its breaker.
	sctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	srvC.Shutdown(sctx)
	cancel()
	waitStatus("went down", func(r fleet.ReplicaStatus) bool { return !r.Up })

	// C comes back on another build: the same pages under another header.
	rebuilt := rawDB(pages, ps)
	rebuilt.Header = []byte("another build's header\n")
	capC := &capture{}
	srvC2, _ := startReplicaAt(t, addrC, rebuilt, capC)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srvC2.Shutdown(ctx)
	})
	waitStatus("was re-dialed and refused", func(r fleet.ReplicaStatus) bool {
		return r.LastErr != nil && strings.Contains(r.LastErr.Error(), "different headers")
	})
	if st := f.Status().Replicas[2]; st.Up || st.Trips != 1 {
		t.Fatalf("diverged replica after re-dial = %+v, want down with its one trip", st)
	}

	for i := 0; i < queries; i++ {
		if got, _ := readOne(t, f, i); !equalBytes(got, pages[i]) {
			t.Fatalf("query %d returned the wrong page", i)
		}
	}
	if st := f.Status(); st.Replicas[2].Up || !st.Replicas[0].Up || !st.Replicas[1].Up {
		t.Fatalf("status after the queries = %+v, want A and B up, C down", st.Replicas)
	}
	if got := len(capC.stores[0].shares()); got != 0 {
		t.Errorf("the diverged replica answered %d shares", got)
	}
	if got := len(srvC2.Traces("RAW")); got != 0 {
		t.Errorf("the diverged replica recorded %d traces", got)
	}
}

// relay forwards loopback TCP connections to a backend. Frozen, it stops
// forwarding in both directions but keeps every socket open, so the
// backend looks hung to its client rather than dead: no read fails, no
// write fails, nothing comes back.
type relay struct {
	ln      net.Listener
	backend string

	mu     sync.Mutex
	thawed chan struct{} // closed while forwarding; open while frozen
	conns  []net.Conn
}

// startRelay listens on loopback and forwards to backend until the test
// ends.
func startRelay(t *testing.T, backend string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln, backend: backend, thawed: make(chan struct{})}
	close(r.thawed)
	go r.accept()
	t.Cleanup(r.close)
	return r
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", r.backend)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, b)
		r.mu.Unlock()
		go r.pipe(c, b)
		go r.pipe(b, c)
	}
}

// pipe copies src to dst, holding each chunk it read while the relay is
// frozen; either side failing closes both.
func (r *relay) pipe(src, dst net.Conn) {
	defer src.Close()
	defer dst.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			r.mu.Lock()
			thawed := r.thawed
			r.mu.Unlock()
			<-thawed
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// freeze stops forwarding; resume starts it again.
func (r *relay) freeze() {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.thawed:
		r.thawed = make(chan struct{})
	default:
	}
}

func (r *relay) resume() {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.thawed:
	default:
		close(r.thawed)
	}
}

func (r *relay) close() {
	r.ln.Close()
	r.resume()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
}

// TestProberTripsHungReplica: a replica that keeps its connection open but
// stops answering — no socket closes, so no query's transport error can
// reveal it — is caught by the prober's ping alone. Its breaker opens
// before any query is sent, the queries that follow pair on the other two
// replicas, and once it answers again the prober re-admits it.
func TestProberTripsHungReplica(t *testing.T) {
	const n, ps, queries = 16, 8, 6
	pages := rawPages(n, ps, 19)
	db := rawDB(pages, ps)
	var srvs [3]*server.Server
	var addrs [3]string
	for i := range srvs {
		srvs[i], addrs[i] = startDaemon(t, "RAW", db, true, true, nil)
	}
	hung := startRelay(t, addrs[2])
	f := dialProbing(t, []string{addrs[0], addrs[1], hung.addr()}, fleet.Options{}, 25*time.Millisecond)

	waitStatus := func(what string, cond func(fleet.ReplicaStatus) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if cond(f.Status().Replicas[2]) {
				return
			}
		}
		t.Fatalf("the relayed replica never %s: %+v", what, f.Status().Replicas[2])
	}

	hung.freeze()
	waitStatus("went down", func(r fleet.ReplicaStatus) bool { return !r.Up })
	st := f.Status()
	if st.Replicas[2].Trips != 1 || st.PairedQueries != 0 {
		t.Fatalf("hung replica = %+v after %d queries, want its breaker opened once, by the prober alone",
			st.Replicas[2], st.PairedQueries)
	}

	for i := 0; i < queries; i++ {
		if got, _ := readOne(t, f, i); !equalBytes(got, pages[i]) {
			t.Fatalf("query %d with the replica hung returned the wrong page", i)
		}
	}
	for i, srv := range srvs {
		want := queries
		if i == 2 {
			want = 0
		}
		if got := len(srv.Traces("RAW")); got != want {
			t.Errorf("replica %d recorded %d traces of %d queries, want %d", i, got, queries, want)
		}
	}

	hung.resume()
	waitStatus("was re-admitted", func(r fleet.ReplicaStatus) bool { return r.Up })
	if st := f.Status().Replicas[2]; st.Trips != 1 {
		t.Fatalf("re-admitted replica = %+v, want its one trip", st)
	}
	// Three rotated queries start at each replica in turn, so the
	// re-admitted one takes part in two of them.
	for i := 0; i < 3; i++ {
		if got, _ := readOne(t, f, i); !equalBytes(got, pages[i]) {
			t.Fatalf("query %d after re-admission returned the wrong page", i)
		}
	}
	if got := len(srvs[2].Traces("RAW")); got != 2 {
		t.Errorf("the re-admitted replica recorded %d traces of 3 rotated queries, want 2", got)
	}
}
