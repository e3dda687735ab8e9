package fleet

// Internal tests for the breaker, the prober's per-replica backoff
// schedule and replica selection; the externally observable failover
// behaviour lives in failover_test.go.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestProbeDelayHealthy: a healthy replica (streak 0) is revisited about
// once per interval, jittered ±¼ so fleet probers drift apart.
func TestProbeDelayHealthy(t *testing.T) {
	const interval = 100 * time.Millisecond
	lo, hi := interval*3/4, interval*5/4
	seen := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		d := probeDelay(interval, 0)
		if d < lo || d >= hi {
			t.Fatalf("probeDelay(interval, 0) = %v, want in [%v, %v)", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Fatalf("healthy probe delay drew %d distinct values in 200 tries — jitter missing", len(seen))
	}
}

// TestProbeDelayBackoff: a failing replica backs off exponentially with
// full jitter — floor interval/4, ceiling interval<<(streak-1) capped at
// 8×interval — so it is neither hammered nor forgotten.
func TestProbeDelayBackoff(t *testing.T) {
	const interval = 100 * time.Millisecond
	floor := interval / 4
	for _, tc := range []struct {
		streak  int
		ceiling time.Duration
	}{
		{1, interval},
		{2, 2 * interval},
		{3, 4 * interval},
		{4, 8 * interval},
		{5, 8 * interval},  // cap
		{20, 8 * interval}, // cap survives deep streaks without overflow
	} {
		for i := 0; i < 100; i++ {
			d := probeDelay(interval, tc.streak)
			if d < floor || d >= floor+tc.ceiling {
				t.Fatalf("probeDelay(interval, %d) = %v, want in [%v, %v)",
					tc.streak, d, floor, floor+tc.ceiling)
			}
		}
	}
}

// TestReportErrorBusyKeepsBreakerClosed: a shed query is the daemon
// protecting itself, not dying — reportError passes ErrBusy through
// unchanged and the replica's breaker stays closed.
func TestReportErrorBusyKeepsBreakerClosed(t *testing.T) {
	f := &Fleet{opts: Options{}}
	rep := &replica{addr: "test:0", up: true}
	busy := &client.BusyError{RetryAfter: 25 * time.Millisecond}
	got := f.reportError(rep, busy)
	if got != error(busy) {
		t.Fatalf("reportError(busy) = %v, want the busy error unchanged", got)
	}
	if !errors.Is(got, client.ErrBusy) {
		t.Fatalf("reportError(busy) = %v, lost the ErrBusy identity", got)
	}
	if !rep.up {
		t.Fatal("shed query tripped the replica breaker")
	}
	var rd *ReplicaDownError
	if errors.As(got, &rd) {
		t.Fatalf("reportError(busy) wrapped as ReplicaDownError: %v", got)
	}
}

// TestStartQueryRacesBreaker: StartQuery must read a replica's connection
// under the fleet lock. Here one goroutine flaps replica B's breaker —
// markDown drops its connection, probe dials a new one — while queries
// start in a loop. A query that read the connection after the lock was
// released could start on a stale or nil client: -race reports the read,
// and a nil read panics.
func TestStartQueryRacesBreaker(t *testing.T) {
	const ps = 8
	db := &lbs.Database{
		Scheme: "RAW",
		Header: []byte("raw fixture header\n"),
		Files:  []pagefile.Reader{pagefile.SlicePages("pages", ps, [][]byte{make([]byte, ps), make([]byte, ps)})},
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := server.New(server.Options{ReplicaRole: true, Stores: lbs.XORStores})
		if err := srv.Host("RAW", db, costmodel.Default()); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		addrs = append(addrs, ln.Addr().String())
	}
	// The background prober never fires during the test: the loop below
	// drives the breaker by hand.
	SetProbeInterval(t, time.Hour)
	SetRegistry(t, telemetry.NewRegistry())
	f, err := Dial(context.Background(), addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	repB := f.replicas[1]

	flapped := make(chan struct{})
	go func() {
		defer close(flapped)
		for i := 0; i < 50; i++ {
			f.markDown(repB, errors.New("injected"))
			if !f.probe(repB) {
				t.Error("re-dial of a live replica failed")
				return
			}
		}
	}()
	defer func() { <-flapped }() // a failing query loop still waits for the flapper
	for tries := 0; ; tries++ {
		select {
		case <-flapped:
			if tries == 0 {
				t.Fatal("no query was tried while the breaker flapped")
			}
			return
		default:
		}
		q := f.StartQuery()
		if err := q.Err(); err != nil {
			var rd *ReplicaDownError
			if !errors.As(err, &rd) || rd.Addr != repB.addr {
				t.Fatalf("StartQuery with B down: err = %v, want *ReplicaDownError naming %s", err, repB.addr)
			}
			continue
		}
		q.Cancel(wire.CancelAbandon)
	}
}
