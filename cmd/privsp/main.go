// Command privsp is the command-line front end of the private shortest path
// library: generate synthetic road networks, build scheme databases,
// inspect their files and query plans, and run private queries.
//
// Usage:
//
//	privsp generate -preset Argentina -scale 0.05
//	privsp build    -preset Oldenburg -scale 0.1 -scheme CI
//	privsp build    -preset Oldenburg -scale 0.1 -scheme CI -out ci.psdb
//	privsp build    -nodes oldb.nodes -edges oldb.edges -scheme PI -page 1024 -out pi.psdb
//	privsp plan     -preset Oldenburg -scale 0.1 -scheme HY -threshold 20
//	privsp query    -preset Oldenburg -scale 0.1 -scheme PI -s 3 -t 99
//	privsp audit    -preset Oldenburg -scale 0.1 -scheme CI
//
// -nodes and -edges (given together) load the network from 'id x y' and
// 'id from to weight' files instead of generating -preset; -page sets the
// page size in bytes (0 = the Table 2 default).
//
// With -remote, query runs against a privspd daemon serving containers
// written by build -out, instead of an in-process server. The network must
// still be loaded locally, with the flags it was built from, to map node
// ids to coordinates:
//
//	privsp query -remote localhost:7465 -db CI -preset Oldenburg -scale 0.05 -s 3 -t 99
//
// With -fleet, query fans each XOR PIR read out as selector shares across
// two (or more) privspd replicas started with -replica-role, so no single
// server can reconstruct what was read:
//
//	privsp query -fleet host1:7465,host2:7465 -preset Oldenburg -scale 0.05 -s 3 -t 99
//
// A daemon's serving counters are read from its admin endpoint
// (privspd -admin, GET /metrics) alone, never from the serving port.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/privsp"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	preset := fs.String("preset", "Oldenburg", "network preset (Oldenburg, Germany, Argentina, Denmark, India, NorthAmerica)")
	scale := fs.Float64("scale", 0.05, "network scale in (0,1]")
	seed := fs.Int64("seed", 1, "generator / build seed")
	nodesFile := fs.String("nodes", "", "node file ('id x y' lines); overrides -preset together with -edges")
	edgesFile := fs.String("edges", "", "edge file ('id from to weight' lines)")
	pageSize := fs.Int("page", 0, "page size in bytes (0 = Table 2 default)")
	scheme := fs.String("scheme", "CI", "scheme: CI, PI, PI*, HY, LM, AF")
	threshold := fs.Int("threshold", 0, "HY threshold")
	cluster := fs.Int("cluster", 0, "PI* cluster pages")
	landmarks := fs.Int("landmarks", 0, "LM anchors")
	regions := fs.Int("regions", 0, "AF regions")
	srcNode := fs.Int("s", 0, "query source node id")
	dstNode := fs.Int("t", 1, "query destination node id")
	remote := fs.String("remote", "", "privspd daemon address; query runs over the wire")
	fleetAddrs := fs.String("fleet", "", "comma-separated privspd replica addresses; query fans XOR PIR selector shares across them")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = none); dialing always has a connect timeout")
	database := fs.String("db", "", "remote database name (empty = the daemon's sole database)")
	out := fs.String("out", "", "build: write the database as a .psdb container to this path")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	// Reject up front: build is the only writer, and a silently dropped -out
	// (or one rejected after minutes of preprocessing) is worse than an
	// immediate error.
	if *out != "" && cmd != "build" {
		fatal(fmt.Errorf("-out only applies to build"))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *remote != "" && *fleetAddrs != "" {
		fatal(fmt.Errorf("-remote and -fleet are mutually exclusive"))
	}

	net, desc, err := loadNetwork(*preset, *scale, *seed, *nodesFile, *edgesFile)
	if err != nil {
		fatal(err)
	}
	cfg := privsp.Config{
		Scheme:       privsp.Scheme(*scheme),
		PageSize:     *pageSize,
		Threshold:    *threshold,
		ClusterPages: *cluster,
		Landmarks:    *landmarks,
		Regions:      *regions,
		Seed:         *seed,
	}

	switch cmd {
	case "generate":
		fmt.Printf("%s: %d nodes, %d edges\n", desc, net.NumNodes(), net.NumEdges())
	case "build", "plan":
		db, err := privsp.Build(net, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("scheme %s on %s (%d nodes): %.2f MB\n",
			db.Scheme(), desc, net.NumNodes(), float64(db.TotalBytes())/(1<<20))
		fmt.Println("query plan:", db.Plan())
		if *out != "" {
			if err := db.Save(*out); err != nil {
				fatal(err)
			}
			fmt.Printf("saved container %s (serve it with: privspd -db %s)\n", *out, *out)
		}
	case "audit":
		// Play the Theorem 1 indistinguishability game against the built
		// scheme and report the adversary's measured advantage.
		db, err := privsp.Build(net, cfg)
		if err != nil {
			fatal(err)
		}
		srv, err := privsp.Serve(db)
		if err != nil {
			fatal(err)
		}
		exec := func(q core.Query) (core.View, error) {
			res, err := srv.ShortestPath(ctx, q.S, q.T)
			if err != nil {
				return core.View{}, err
			}
			return core.View{Transcript: res.Trace}, nil
		}
		adv, err := core.MeasureAdvantage(exec,
			func(i int) privsp.Point { return net.NodePoint(privsp.NodeID(i)) },
			net.NumNodes(), 8, 4, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("scheme %s: adversary advantage %.4f", cfg.Scheme, float64(adv))
		if adv != 0 {
			fmt.Println("  (Theorem 1 violated: queries are distinguishable)")
			os.Exit(1)
		}
		fmt.Println("  (Theorem 1 holds: queries are indistinguishable)")
	case "query":
		if err := checkNodes(net, *srcNode, *dstNode); err != nil {
			fatal(err)
		}
		var srv privsp.PathService
		if *fleetAddrs != "" {
			fsrv, err := privsp.DialFleetConfig(ctx, splitAddrs(*fleetAddrs), privsp.FleetConfig{
				Database: *database,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, format+"\n", args...)
				},
			})
			if err != nil {
				fatal(err)
			}
			defer fsrv.Close()
			fmt.Printf("fleet %s hosting %s (shares fan-out)\n", *fleetAddrs, fsrv.Scheme())
			srv = fsrv
		} else if *remote != "" {
			rsrv, err := privsp.DialDatabaseContext(ctx, *remote, *database)
			if err != nil {
				fatal(err)
			}
			defer rsrv.Close()
			fmt.Printf("remote %s hosting %s (%s)\n", *remote, rsrv.Database(), rsrv.Scheme())
			srv = rsrv
		} else {
			db, err := privsp.Build(net, cfg)
			if err != nil {
				fatal(err)
			}
			lsrv, err := privsp.Serve(db)
			if err != nil {
				fatal(err)
			}
			srv = lsrv
		}
		var serverTrace string
		res, err := srv.ShortestPath(ctx, net.NodePoint(privsp.NodeID(*srcNode)), net.NodePoint(privsp.NodeID(*dstNode)),
			privsp.WithServerTrace(&serverTrace))
		if err != nil {
			fatal(err)
		}
		if !res.Found() {
			fmt.Println("no path")
			return
		}
		fmt.Printf("cost %.4f over %d edges\n", res.Cost, len(res.Path)-1)
		fmt.Printf("simulated response %.2fs (PIR %.2fs, comm %.2fs, client %.4fs, server %.2fs)\n",
			res.Stats.Response().Seconds(), res.Stats.PIR.Seconds(), res.Stats.Comm.Seconds(),
			res.Stats.Client.Seconds(), res.Stats.Server.Seconds())
		switch srv.(type) {
		case *privsp.RemoteServer:
			fmt.Printf("server-observed trace (adversarial view):\n%s", serverTrace)
		case *privsp.FleetServer:
			fmt.Printf("per-replica trace (each server's whole adversarial view):\n%s", serverTrace)
		}
	default:
		usage()
		os.Exit(2)
	}
}

// splitAddrs parses the comma-separated -fleet flag.
func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// loadNetwork returns the network the flags name and a label for it: the
// -nodes/-edges files when given (they override -preset), else -preset
// generated at scale and seed.
func loadNetwork(preset string, scale float64, seed int64, nodesFile, edgesFile string) (*privsp.Network, string, error) {
	if (nodesFile == "") != (edgesFile == "") {
		return nil, "", fmt.Errorf("-nodes and -edges must be given together")
	}
	if nodesFile != "" {
		nf, err := os.Open(nodesFile)
		if err != nil {
			return nil, "", err
		}
		defer nf.Close()
		ef, err := os.Open(edgesFile)
		if err != nil {
			return nil, "", err
		}
		defer ef.Close()
		net, err := privsp.LoadNetwork(nf, ef)
		return net, nodesFile, err
	}
	for _, p := range []privsp.Preset{
		privsp.Oldenburg, privsp.Germany, privsp.Argentina,
		privsp.Denmark, privsp.India, privsp.NorthAmerica,
	} {
		if strings.EqualFold(p.String(), preset) {
			return privsp.Generate(p, scale, seed), fmt.Sprintf("%s at scale %.3f", p, scale), nil
		}
	}
	return nil, "", fmt.Errorf("unknown preset %q", preset)
}

// checkNodes refuses query endpoints that are not node ids of net.
func checkNodes(net *privsp.Network, ids ...int) error {
	for _, id := range ids {
		if id < 0 || id >= net.NumNodes() {
			return fmt.Errorf("node ids must be below %d", net.NumNodes())
		}
	}
	return nil
}

// fatal prints err as its errorLine and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(1)
}

// errorLine is err as the command reports it: prefixed "privsp: " once. The
// library's own errors already carry the prefix, so they keep theirs.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "privsp: ") {
		msg = "privsp: " + msg
	}
	return msg
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: privsp <generate|build|plan|query|audit> [flags]
run "privsp <cmd> -h" for flags; query accepts -remote <addr> or -fleet <addr1,addr2>`)
}
