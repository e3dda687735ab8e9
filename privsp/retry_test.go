package privsp

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// retriesTotal reads the client-side retry counter for one stage from the
// process-default registry.
func retriesTotal(t *testing.T, stage string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := telemetry.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series := `privsp_retries_total{stage="` + stage + `"}`
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, series)), 64)
		if err != nil {
			t.Fatalf("series %s: bad value in %q: %v", series, line, err)
		}
		return v
	}
	t.Fatalf("series %s not exported", series)
	return 0
}

// startBusyDaemon hosts CI with a one-query admission budget and parks a
// raw query on the only slot; release settles it.
func startBusyDaemon(t *testing.T, db *Database) (addr string, release func()) {
	t.Helper()
	srv := server.New(server.Options{MaxInflight: 1})
	if err := srv.Host("CI", db.LBS(), costmodel.Default()); err != nil {
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

	bc, err := client.Dial(ln.Addr().String(), client.Options{Database: "CI"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	blocker := bc.StartQuery()
	if _, err := blocker.ReadPages(context.Background(), bc.Files()[0].Name, []int{0}); err != nil {
		t.Fatal(err)
	}
	return ln.Addr().String(), func() { blocker.Cancel(wire.CancelAbandon) }
}

// TestShortestPathRetriesBusy: a query shed by an overloaded daemon is
// retried whole — fresh session, fresh selector randomness — after the
// hinted delay, and succeeds once the load drains. The busyRetry attempt
// floor is the daemon's hint, so releasing the blocker before the second
// retry window makes the outcome deterministic.
func TestShortestPathRetriesBusy(t *testing.T) {
	net0 := Generate(Oldenburg, 0.08, 1)
	db, err := Build(net0, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	addr, release := startBusyDaemon(t, db)

	local, err := Serve(db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.ShortestPath(context.Background(), net0.NodePoint(0), net0.NodePoint(9))
	if err != nil {
		t.Fatal(err)
	}

	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	before := retriesTotal(t, "query")
	// Drain the daemon while the first shed attempt is sleeping on its
	// retry hint: with MaxInflight=1 the hint is 50ms and attempt k starts
	// no earlier than k*50ms, so an 80ms release lands before attempt 2.
	go func() {
		time.Sleep(80 * time.Millisecond)
		release()
	}()
	res, err := remote.ShortestPath(context.Background(), net0.NodePoint(0), net0.NodePoint(9))
	if err != nil {
		t.Fatalf("query against a draining daemon: %v", err)
	}
	if res.Cost != want.Cost {
		t.Errorf("retried query cost %v, local %v", res.Cost, want.Cost)
	}
	if got := retriesTotal(t, "query"); got <= before {
		t.Errorf("privsp_retries_total{stage=\"query\"} = %v, want > %v", got, before)
	}
}

// TestShortestPathBusyExhaustion: when the daemon never drains, the retry
// loop gives up after its attempt budget and surfaces the typed busy error
// — the caller can distinguish overload from failure.
func TestShortestPathBusyExhaustion(t *testing.T) {
	net0 := Generate(Oldenburg, 0.08, 1)
	db, err := Build(net0, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	addr, release := startBusyDaemon(t, db)
	defer release()

	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	_, err = remote.ShortestPath(context.Background(), net0.NodePoint(0), net0.NodePoint(9))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("query against a saturated daemon: err = %v, want ErrBusy", err)
	}
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BusyError", err)
	}
	if be.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", be.RetryAfter)
	}
}

// flakyListener closes the first fails accepted connections immediately —
// the daemon is up, but the first dials die at the handshake.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.fails.Add(-1) >= 0 {
			c.Close()
			continue
		}
		return c, nil
	}
}

// TestDialRetriesTransientFailures: Dial retries connect/handshake
// failures with backoff, so a daemon that drops the first two connections
// (restart races, accept-queue hiccups) is still reached — and the retries
// are counted.
func TestDialRetriesTransientFailures(t *testing.T) {
	net0 := Generate(Oldenburg, 0.08, 1)
	db, err := Build(net0, Config{Scheme: CI})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{})
	if err := srv.Host("CI", db.LBS(), costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyListener{Listener: ln}
	flaky.fails.Store(2)
	go srv.Serve(flaky)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	before := retriesTotal(t, "dial")
	remote, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial through two dropped connections: %v", err)
	}
	defer remote.Close()
	if remote.Scheme() != CI {
		t.Errorf("dialed scheme %s, want CI", remote.Scheme())
	}
	if got := retriesTotal(t, "dial"); got != before+2 {
		t.Errorf("privsp_retries_total{stage=\"dial\"} = %v, want %v", got, before+2)
	}
	// The retried connection works end to end.
	if _, err := remote.ShortestPath(context.Background(), net0.NodePoint(0), net0.NodePoint(9)); err != nil {
		t.Fatalf("query over the retried connection: %v", err)
	}
}
