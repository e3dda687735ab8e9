package obf

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestQueryMatchesDijkstra(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.1)
	srv, err := NewServer(g, costmodel.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		res, err := srv.Query(context.Background(), g.Point(s), g.Point(d))
		if err != nil {
			t.Fatal(err)
		}
		want := graph.ShortestPath(g, s, d)
		if math.Abs(res.Cost-want.Cost) > 1e-9 {
			t.Fatalf("trial %d: OBF %v, want %v", trial, res.Cost, want.Cost)
		}
	}
}

// TestQueryHonorsContext: a dead context fails the query with ctx.Err()
// before any per-source Dijkstra runs.
func TestQueryHonorsContext(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.05)
	srv, err := NewServer(g, costmodel.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Query(ctx, g.Point(0), g.Point(5)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// An expired deadline reports DeadlineExceeded, not Canceled.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := srv.Query(dctx, g.Point(0), g.Point(5)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestLeakageIsVisible(t *testing.T) {
	// The whole point of the paper: OBF's trace reveals the candidate
	// sets, while the PIR schemes' traces are query-independent.
	g := gen.GeneratePreset(gen.Oldenburg, 0.1)
	srv, err := NewServer(g, costmodel.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := srv.Query(context.Background(), g.Point(3), g.Point(99))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := srv.Query(context.Background(), g.Point(7), g.Point(151))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trace == r2.Trace {
		t.Error("OBF traces should differ between queries (that is its weakness)")
	}
	if !strings.Contains(r1.Trace, "sources=") {
		t.Error("trace should expose candidate sources")
	}
}

func TestCostScalesWithSetSize(t *testing.T) {
	// Figure 6: response time grows with |S| = |T|.
	g := gen.GeneratePreset(gen.Oldenburg, 0.1)
	small, err := NewServer(g, costmodel.Default(), Options{SetSize: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewServer(g, costmodel.Default(), Options{SetSize: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := small.Query(context.Background(), g.Point(0), g.Point(50))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := big.Query(context.Background(), g.Point(0), g.Point(50))
	if err != nil {
		t.Fatal(err)
	}
	if rb.Stats.Response() <= rs.Stats.Response() {
		t.Errorf("|S|=60 response %v <= |S|=5 response %v", rb.Stats.Response(), rs.Stats.Response())
	}
	if rb.Stats.Server <= 0 || rb.Stats.Comm <= 0 {
		t.Error("cost components missing")
	}
}

func TestRejectsBadSetSize(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.05)
	if _, err := NewServer(g, costmodel.Default(), Options{SetSize: 0}); err == nil {
		t.Error("set size 0 accepted")
	}
}

func TestDatabaseBytesPositive(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.05)
	srv, err := NewServer(g, costmodel.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if srv.DatabaseBytes() <= 0 {
		t.Error("database size not accounted")
	}
}
