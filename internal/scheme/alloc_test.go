package scheme_test

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/pi"
	"repro/internal/server"
)

// TestClientQueryAllocations bounds what one in-process CI and PI query
// allocates in steady state, client and in-process service together: 300
// queries after a warm-up, measured with runtime.MemStats. The client graph
// is pooled and region pages decode straight into it, so a query's garbage
// is its protocol traffic, not its graph; the bounds sit above the measured
// figures with headroom and catch a return to per-query maps.
func TestClientQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	g := gen.GeneratePreset(gen.Oldenburg, 0.25)
	for _, sc := range []struct {
		name      string
		build     func() (*lbs.Database, error)
		query     queryFn
		maxBytes  uint64 // per query
		maxAllocs uint64 // per query
	}{
		// Measured on this network: CI 106–108 KB in 69 allocations (102–103
		// KB in 78 while the session queued each frame as the query declared
		// it, 124–131 KB in 212–213 while the index walk allocated each
		// earlier record of the page, 888 KB in 5 497 with the map-based
		// graph), PI 42–43 KB in 57 (in 64 with the queued frames, 210 KB in
		// 1 387 with the map-based graph). The bounds leave about half as
		// much again, so a walk that allocates per record fails them.
		{"CI", func() (*lbs.Database, error) { return ci.Build(g, base.Config{}) }, ci.Query, 152 << 10, 104},
		{"PI", func() (*lbs.Database, error) { return pi.Build(g, base.Config{}) }, pi.Query, 96 << 10, 86},
	} {
		t.Run(sc.name, func(t *testing.T) {
			db, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			srv, err := lbs.NewServer(db, costmodel.Default(), nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			pairs := make([][2]graph.NodeID, 64)
			for i := range pairs {
				pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))}
			}
			run := func(n int) {
				for i := 0; i < n; i++ {
					p := pairs[i%len(pairs)]
					if _, err := sc.query(context.Background(), srv, g.Point(p[0]), g.Point(p[1])); err != nil {
						t.Fatal(err)
					}
				}
			}
			const queries = 300
			run(len(pairs)) // warm-up: pools filled, slices grown
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			run(queries)
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / queries
			allocs := (after.Mallocs - before.Mallocs) / queries
			t.Logf("%s: %d B and %d allocations per query", sc.name, bytes, allocs)
			if bytes > sc.maxBytes || allocs > sc.maxAllocs {
				t.Errorf("%s query allocates %d B in %d allocations; bound %d B, %d allocations",
					sc.name, bytes, allocs, sc.maxBytes, sc.maxAllocs)
			}
		})
	}
}

// TestRemoteQueryBytes bounds what one CI query over loopback allocates in
// steady state, daemon and client together in one process: 300 queries on
// one connection after a warm-up, measured with runtime.MemStats. The
// client reads each reply frame into a buffer from its bounded reply list,
// and the query gives its buffers back when it ends, so the next query's
// pages land in them; the bound catches a return to one fresh buffer per
// reply frame.
func TestRemoteQueryBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	// Measured on this network, on a 2-core host: 16.86–16.88 KB in
	// 121–122 allocations at -cpu 1, 2 and 4, the client graphs and index
	// walks on bounded channel lists. With those on per-P sync.Pools, whose
	// caches miss when a query moves to another P, -cpu 4 measured 34–54
	// KB in 127–130. The twelve allocations past the 109 of a daemon that
	// recycled its fetch scratch across queries are each query's own
	// scratch, grown over its first fetches. Earlier: 14.7 KB in 109 at
	// -cpu 1 and 2 and 21–59 KB at -cpu 4 with a per-P sync.Pool of
	// request frames; 117–130 KB in 112–115 allocations, 180–213 KB at
	// -cpu 4, while the client allocated every reply frame's payload
	// fresh. The bound sits between the two.
	const maxBytes = 64 << 10 // per query
	g := gen.GeneratePreset(gen.Oldenburg, 0.25)
	db, err := ci.Build(g, base.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{})
	if err := srv.Host("CI", db, costmodel.Default()); err != nil {
		t.Fatal(err)
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
	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]graph.NodeID, 64)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))}
	}
	ctx := context.Background()
	run := func(n int) {
		for i := 0; i < n; i++ {
			p := pairs[i%len(pairs)]
			q := c.StartQuery()
			if _, err := ci.Query(ctx, q, g.Point(p[0]), g.Point(p[1])); err != nil {
				t.Fatal(err)
			}
			if _, err := q.End(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	const queries = 300
	run(len(pairs)) // warm-up: lists filled, slices grown
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(queries)
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / queries
	allocs := (after.Mallocs - before.Mallocs) / queries
	t.Logf("loopback CI: %d B and %d allocations per query", bytes, allocs)
	if bytes > maxBytes {
		t.Errorf("loopback CI query allocates %d B; bound %d B", bytes, maxBytes)
	}
}
