package fleet_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fleet"
	"repro/internal/lbs"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// fullQuery runs the canonical query shape of this test file — header,
// then two single-page read rounds — and returns the first page and the
// replica trace. The second round exists so a query that dies in the
// first leaves a PROPER prefix behind.
func fullQuery(t testing.TB, f *fleet.Fleet, page int) ([]byte, string) {
	t.Helper()
	ctx := context.Background()
	q := f.StartQuery()
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.HeaderBytes(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := q.ReadPages(ctx, "pages", []int{page})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.ReadPages(ctx, "pages", []int{(page + 1) % failN}); err != nil {
		t.Fatal(err)
	}
	trace, err := q.End(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return got[0], trace
}

// TestFailover kills one replica mid-query and walks the fleet through
// the full failure arc: the in-flight query fails cleanly with a typed
// ErrReplicaDown naming the dead replica while the surviving replica
// keeps its prefix trace; the breaker opens; the next query succeeds in
// degraded single-server mode with the demotion counted; and once a
// daemon listens on the address again, the prober closes the breaker and
// queries pair up again.
// failN/failPS shape the raw database fullQuery and TestFailover share.
const failN, failPS = 32, 16

func TestFailover(t *testing.T) {
	pages := rawPages(failN, failPS, 11)
	db := rawDB(pages, failPS)
	srvA, addrA := startDaemon(t, "RAW", db, true, true, nil)

	// Replica B is managed by hand — it dies and is reborn mid-test.
	newB := func(addr string) (*server.Server, string) {
		s := server.New(server.Options{Workers: 4, ReplicaRole: true, Stores: lbs.XORStores})
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
	srvB, addrB := newB("127.0.0.1:0")

	var mu sync.Mutex
	var logs []string
	f := dialFleet(t, []string{addrA, addrB}, fleet.Options{
		ProbeInterval: 25 * time.Millisecond,
		Telemetry:     telemetry.NewRegistry(),
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, format)
			mu.Unlock()
		},
	})
	ctx := context.Background()

	// Healthy paired query; its trace is the canonical full trace.
	got, full := fullQuery(t, f, 3)
	if !equalBytes(got, pages[3]) {
		t.Fatal("paired query returned wrong page")
	}

	// Kill replica B, then run a query that spans the death: the header
	// fetch lands on both replicas (A records it), then the page read hits
	// the dead socket.
	q := f.StartQuery()
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.HeaderBytes(ctx); err != nil {
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
	// canonical one (here: the header line alone).
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

	// Degraded query: correct answer, loudly counted and logged.
	if got, _ := fullQuery(t, f, 7); !equalBytes(got, pages[7]) {
		t.Fatal("degraded query returned wrong page")
	}
	if st := f.Status(); st.DegradedQueries != 1 {
		t.Fatalf("degraded queries = %d, want 1", st.DegradedQueries)
	}
	mu.Lock()
	demoted := false
	for _, l := range logs {
		if strings.Contains(l, "DEGRADED") {
			demoted = true
		}
	}
	mu.Unlock()
	if !demoted {
		t.Fatal("degraded demotion was not logged")
	}

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
	st = f.Status()
	// Queries 1 and 2 started paired, the post-recovery one too.
	if st.PairedQueries != 3 || st.DegradedQueries != 1 {
		t.Fatalf("final counts: paired %d / degraded %d, want 3 / 1", st.PairedQueries, st.DegradedQueries)
	}
}
