package client

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/hy"
	"repro/internal/scheme/pi"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestNoQueryReadsARecycledBuffer: a query's pages alias reply buffers that
// go back to the process's reply list only when the query is settled. With
// every recycled buffer poisoned, CI, PI and HY queries run concurrently
// over loopback — several pipelining their batches on each scheme's one
// connection, all three connections drawing on the one list — and every
// answer must still equal Dijkstra's and every trace, the client's and the
// daemon's, the scheme's canonical one. A query that decoded a page after
// its buffer was recycled would read poison, or a later reply, instead.
// CI decodes its last pages after the batch that carried its EndQuery, and
// HY a long record's round-3 pages after round 4's batch, so recycling
// once the daemon settled the query, or per batch, fails here; under -race
// any read of a recycled buffer shows as a race too.
func TestNoQueryReadsARecycledBuffer(t *testing.T) {
	defer func(old bool) { poisonRecycled = old }(poisonRecycled)
	poisonRecycled = true

	g := gen.GeneratePreset(gen.Oldenburg, 0.05)
	schemes := []struct {
		name  string
		cfg   base.Config
		build func(*graph.Graph, base.Config) (*lbs.Database, error)
		query func(context.Context, lbs.Service, geom.Point, geom.Point) (*base.Result, error)
	}{
		{"CI", base.Config{}, ci.Build, ci.Query},
		{"PI", base.Config{}, pi.Build, pi.Query},
		// A low threshold answers most pairs by subgraph records, which
		// run past round 3's window into round 4.
		{"HY", base.Config{Threshold: 2}, hy.Build, hy.Query},
	}
	srv := server.New(server.Options{})
	canonical := map[string]string{}
	for _, s := range schemes {
		db, err := s.build(g, s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Host(s.name, db, costmodel.Default()); err != nil {
			t.Fatal(err)
		}
		canonical[s.name] = lbs.CanonicalTrace(db.Plan)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	}()

	const loops, queries = 4, 6 // per scheme
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, s := range schemes {
		c, err := Dial(ln.Addr().String(), Options{Database: s.name})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for l := range loops {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(l)))
				for i := range queries {
					src, dst := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
					if err := recycledQuery(ctx, c, s.query, g, src, dst, canonical[s.name]); err != nil {
						t.Errorf("%s loop %d query %d (%d → %d): %v", s.name, l, i, src, dst, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

// recycledQuery runs one query on c and settles it, checking its answer
// against Dijkstra's and both traces against the canonical one.
func recycledQuery(ctx context.Context, c *Client, query func(context.Context, lbs.Service, geom.Point, geom.Point) (*base.Result, error),
	g *graph.Graph, src, dst graph.NodeID, canonical string,
) error {
	q := c.StartQuery()
	defer q.Cancel(wire.CancelAbandon)
	res, err := query(ctx, q, g.Point(src), g.Point(dst))
	if err != nil {
		return err
	}
	trace, err := q.End(ctx)
	if err != nil {
		return err
	}
	if want := graph.ShortestPath(g, src, dst).Cost; math.Abs(res.Cost-want) > 1e-9 {
		return fmt.Errorf("cost %v, Dijkstra %v", res.Cost, want)
	}
	if res.Trace != canonical || trace != canonical {
		return fmt.Errorf("client trace\n%sdaemon trace\n%swant\n%s", res.Trace, trace, canonical)
	}
	return nil
}
