package main

import (
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/privsp"
)

// TestChaosUnderOverload runs the daemon under injected faults and
// overload at once, in process over loopback TCP: its listener adds
// connection latency, tears every ninth connection mid-frame and drops
// every seventh dial, while an admission budget of one query meets 8
// concurrent loops of 3 queries each. Every query dials afresh, as one CLI
// process per query would, so dial retries and Busy retries both run. The
// daemon must keep serving; at least 8 of the 24 queries must come back,
// each with Dijkstra's cost; /readyz must read 503 under the load and 200
// once it drains; /healthz must answer 200; the shed, Busy and
// completed-query counters must all move; and Shutdown must settle.
func TestChaosUnderOverload(t *testing.T) {
	net0 := privsp.Generate(privsp.Oldenburg, 0.05, 1)
	db, err := privsp.Build(net0, privsp.Config{Scheme: privsp.CI})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{MaxInflight: 1})
	if err := srv.Host("CI", db.LBS(), costmodel.Default()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faults := faultinject.New(faultinject.Config{ConnLatency: time.Millisecond, TearEvery: 9, DialFailEvery: 7, Seed: 7})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(faults.Listener(ln)) }()
	admin := httptest.NewServer(newAdminMux(srv.Telemetry(), srv.Ready))
	defer admin.Close()
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Poll readiness while the query loops saturate the budget.
	var shedding atomic.Bool
	stopPoll := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stopPoll:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if resp, err := http.Get(admin.URL + "/readyz"); err == nil {
				if resp.StatusCode == http.StatusServiceUnavailable {
					shedding.Store(true)
				}
				resp.Body.Close()
			}
		}
	}()

	addr := ln.Addr().String()
	var ok atomic.Int64
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 3 {
				s, d := privsp.NodeID(i), privsp.NodeID(10+i*3+j)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				remote, err := privsp.DialDatabaseContext(ctx, addr, "CI")
				if err == nil {
					var res *privsp.Result
					res, err = remote.ShortestPath(ctx, net0.NodePoint(s), net0.NodePoint(d))
					remote.Close()
					if err == nil {
						if want := graph.ShortestPath(net0.G, s, d).Cost; math.Abs(res.Cost-want) > 1e-9 {
							t.Errorf("query %d→%d: cost %v, Dijkstra %v", s, d, res.Cost, want)
						}
						ok.Add(1)
					}
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	close(stopPoll)
	<-polled

	select {
	case err := <-served:
		t.Fatalf("the daemon stopped serving under chaos load: %v", err)
	default:
	}
	if n := ok.Load(); n < 8 {
		t.Errorf("only %d/24 queries succeeded under chaos", n)
	}
	if !shedding.Load() {
		t.Error("/readyz never read 503 under 8 loops against a budget of 1")
	}
	drained := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if status("/readyz") == http.StatusOK {
			drained = true
			break
		}
	}
	if !drained {
		t.Error("/readyz stuck at 503 after the load drained")
	}
	if code := status("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after chaos load: %d", code)
	}

	resp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"privsp_shed_total", "privsp_busy_sent_total", `privsp_server_queries_total{db="CI"}`} {
		if v := metricValue(t, string(body), series); v <= 0 {
			t.Errorf("%s = %v, want > 0", series, v)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
	t.Logf("%d/24 queries through chaos", ok.Load())
}
