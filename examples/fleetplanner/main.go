// Fleetplanner shows the §6/§7.5 tuning workflow a deployment would follow:
// pick the hybrid scheme's threshold (and compare with clustered PI*) to
// meet a storage budget while minimizing response time — the Figure 10–12
// methodology, on a Germany-like network.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/privsp"
)

func main() {
	net := privsp.Generate(privsp.Germany, 0.04, 3)
	fmt.Printf("network: %d nodes, %d edges\n\n", net.NumNodes(), net.NumEdges())

	budget := int64(6 << 20) // storage budget: 6 MB
	fmt.Printf("storage budget: %.1f MB\n\n", float64(budget)/(1<<20))

	fmt.Println("HY threshold sweep (lower threshold = more subgraphs = faster, bigger):")
	type pick struct {
		label string
		cfg   privsp.Config
	}
	var best *pick
	var bestTime time.Duration
	for _, th := range []int{4, 8, 16, 32, 64} {
		cfg := privsp.Config{Scheme: privsp.HY, Threshold: th}
		resp, bytes, err := measure(net, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fits := bytes <= budget
		fmt.Printf("  threshold %3d: response %6.2fs, %6.2f MB, fits=%v\n",
			th, resp.Seconds(), float64(bytes)/(1<<20), fits)
		if fits && (best == nil || resp < bestTime) {
			p := pick{label: fmt.Sprintf("HY(threshold=%d)", th), cfg: cfg}
			best, bestTime = &p, resp
		}
	}

	fmt.Println("\nPI* cluster sweep (bigger clusters = smaller index, slower):")
	for _, c := range []int{2, 4, 8} {
		cfg := privsp.Config{Scheme: privsp.PIStar, ClusterPages: c}
		resp, bytes, err := measure(net, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fits := bytes <= budget
		fmt.Printf("  cluster %d: response %6.2fs, %6.2f MB, fits=%v\n",
			c, resp.Seconds(), float64(bytes)/(1<<20), fits)
		if fits && (best == nil || resp < bestTime) {
			p := pick{label: fmt.Sprintf("PI*(cluster=%d)", c), cfg: cfg}
			best, bestTime = &p, resp
		}
	}

	if best == nil {
		fmt.Println("\nno configuration fits the budget; raise it or fall back to CI")
		return
	}
	fmt.Printf("\nchosen configuration: %s (avg response %.2fs within budget)\n", best.label, bestTime.Seconds())
}

// measure builds the configuration and averages a small query workload.
func measure(net *privsp.Network, cfg privsp.Config) (time.Duration, int64, error) {
	db, err := privsp.Build(net, cfg)
	if err != nil {
		return 0, 0, err
	}
	srv, err := privsp.Serve(db)
	if err != nil {
		return 0, 0, err
	}
	// A real planner would not wait forever on one candidate configuration:
	// the whole measurement workload runs under a deadline, and a
	// configuration that cannot answer in time is simply rejected.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(9))
	const queries = 10
	var total time.Duration
	for i := 0; i < queries; i++ {
		s := privsp.NodeID(rng.Intn(net.NumNodes()))
		t := privsp.NodeID(rng.Intn(net.NumNodes()))
		res, err := srv.ShortestPath(ctx, net.NodePoint(s), net.NodePoint(t))
		if err != nil {
			return 0, 0, err
		}
		total += res.Stats.Response()
	}
	return total / queries, db.TotalBytes(), nil
}
