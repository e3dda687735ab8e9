// Quickstart: build a Concise Index database over a synthetic road network
// and answer one shortest path query that the hosting service can learn
// nothing about.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/privsp"
)

func main() {
	// A small Oldenburg-like road network (about 600 nodes at scale 0.1).
	net := privsp.Generate(privsp.Oldenburg, 0.1, 42)
	fmt.Printf("network: %d nodes, %d road segments\n", net.NumNodes(), net.NumEdges())

	// Pre-process it under the Concise Index scheme (§5 of the paper):
	// small database, fixed four-round query plan.
	db, err := privsp.Build(net, privsp.Config{Scheme: privsp.CI})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CI database: %.2f MB\n", float64(db.TotalBytes())/(1<<20))
	fmt.Println("public query plan:", db.Plan())

	// The expensive preprocessing runs once: save the database as a .psdb
	// container and serve it from disk from now on (a daemon would do this
	// with "privsp build -out" and "privspd -db"). A database opened from
	// disk serves byte-identically to the in-memory build.
	dir, err := os.MkdirTemp("", "privsp-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	container := filepath.Join(dir, "ci.psdb")
	if err := db.Save(container); err != nil {
		log.Fatal(err)
	}
	saved, err := privsp.Open(container)
	if err != nil {
		log.Fatal(err)
	}
	defer saved.Close()
	fmt.Printf("reopened %s from %s without rebuilding\n", saved.Scheme(), container)

	srv, err := privsp.Serve(saved)
	if err != nil {
		log.Fatal(err)
	}

	// Query between two arbitrary coordinates; they are snapped to the
	// nearest network nodes of their regions. The context carries the
	// query's deadline: PIR is expensive by design, so production callers
	// always bound how long they are willing to wait — cancellation aborts
	// at the next PIR round boundary and leaks nothing.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	src := net.NodePoint(10)
	dst := net.NodePoint(privsp.NodeID(net.NumNodes() - 5))
	var serverView string
	res, err := srv.ShortestPath(ctx, src, dst, privsp.WithServerTrace(&serverView))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shortest path: cost %.3f over %d edges\n", res.Cost, len(res.Path)-1)
	fmt.Printf("simulated response time on the paper's testbed: %.2fs\n", res.Stats.Response().Seconds())
	fmt.Printf("  PIR %.2fs + communication %.2fs + client %.4fs\n",
		res.Stats.PIR.Seconds(), res.Stats.Comm.Seconds(), res.Stats.Client.Seconds())
	fmt.Println("\nwhat the LBS saw (identical for every possible query):")
	fmt.Print(serverView)
}
