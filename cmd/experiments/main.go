// Command experiments regenerates the paper's evaluation: Table 3 and
// Figures 5–12 of Mouratidis & Yiu (PVLDB 2012), on synthetic counterparts
// of the Table 1 road networks.
//
// Usage:
//
//	experiments [-run id] [-scale f] [-queries n] [-seed n] [-list]
//
// Without -run, every experiment runs in paper order. Every query's answer
// is checked against plain Dijkstra, and a wrong cost stops the run with
// exit status 1. REPRO_SCALE and REPRO_QUERIES environment variables set
// defaults (flags win).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
)

func main() {
	// Sized for a full run of well under a minute on two cores.
	cfg := exp.EnvConfig(0.05, 40)
	run := flag.String("run", "", "experiment id (table1, table3, fig5..fig12); empty = all")
	list := flag.Bool("list", false, "list experiment ids and exit")
	scale := flag.Float64("scale", cfg.Scale, "network scale in (0,1]; 1.0 = paper sizes")
	queries := flag.Int("queries", cfg.Queries, "queries per workload (paper: 1000)")
	seed := flag.Int64("seed", cfg.Seed, "workload seed")
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}
	cfg.Scale, cfg.Queries, cfg.Seed = *scale, *queries, *seed
	r := exp.NewRunner(cfg)
	var err error
	if *run == "" {
		err = r.RunAll(os.Stdout)
	} else {
		err = r.Run(*run, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
