// Package exp is the evaluation harness of §7: it regenerates every table
// and figure of the paper's experimental study — Table 3 and Figures 5–12 —
// on the synthetic counterparts of the Table 1 road networks.
//
// Every row measures the product: Runner.Build names a privsp.Config (the
// Fig. 8/9 ablations are its DisablePacking / DisableCompression, PI* is
// Scheme PIStar with ClusterPages, the extension table is CompactData),
// builds it with privsp.Build and serves it with privsp.Serve. LM and AF
// therefore run with the product's plan derivation, seeded apart from the
// workload, so no plan is fitted to the pairs it is timed on. The one
// exception is the obfuscation baseline of Fig. 6, which fails Theorem 1
// by design and which product packages must not link; it is built here
// from internal/scheme/obf.
//
// Costs come from the same recipe as the paper: PIR and communication times
// from the Table 2 simulation, client/server computation measured wall-clock.
// Absolute numbers therefore depend on the machine and on the configured
// network scale, but the comparisons the paper draws (who wins, by what
// factor, where the space/time trade-offs cross) are preserved.
//
// Scale and workload size default to laptop-friendly values and can be
// raised via the REPRO_SCALE and REPRO_QUERIES environment variables
// (REPRO_SCALE=1.0 reproduces the full Table 1 sizes).
package exp

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/scheme/base"
)

// Config controls experiment size.
type Config struct {
	// Scale shrinks every Table 1 network (1.0 = paper size).
	Scale float64
	// Queries per workload (the paper uses 1,000).
	Queries int
	// Seed draws the workload and seeds OBF's decoy sets; the randomized
	// steps of a privsp build (LM and AF plan derivation) take a seed
	// derived from it (Runner.Build).
	Seed int64
}

// EnvConfig returns the Config of seed 1 with the given scale and query
// count, each replaced by REPRO_SCALE or REPRO_QUERIES where that is set
// to a valid value: a scale in (0, 1], a positive count.
func EnvConfig(scale float64, queries int) Config {
	cfg := Config{Scale: scale, Queries: queries, Seed: 1}
	if v, err := strconv.ParseFloat(os.Getenv("REPRO_SCALE"), 64); err == nil && v > 0 && v <= 1 {
		cfg.Scale = v
	}
	if v, err := strconv.Atoi(os.Getenv("REPRO_QUERIES")); err == nil && v > 0 {
		cfg.Queries = v
	}
	return cfg
}

// Runner caches generated networks across experiments.
type Runner struct {
	Cfg  Config
	nets map[gen.Preset]*graph.Graph
}

// NewRunner prepares a runner.
func NewRunner(cfg Config) *Runner {
	return &Runner{Cfg: cfg, nets: map[gen.Preset]*graph.Graph{}}
}

// Network returns the (cached) synthetic network for a preset.
func (r *Runner) Network(p gen.Preset) *graph.Graph {
	if g, ok := r.nets[p]; ok {
		return g
	}
	g := gen.GeneratePreset(p, r.Cfg.Scale)
	r.nets[p] = g
	return g
}

// QueryFunc runs one shortest path query for whatever scheme is under test.
type QueryFunc func(s, t geom.Point) (*base.Result, error)

// Agg aggregates a workload's measurements (averages per query).
type Agg struct {
	Queries   int
	Response  time.Duration
	PIR       time.Duration
	Comm      time.Duration
	Client    time.Duration
	Server    time.Duration
	FetchesFd float64 // region-data PIR accesses (Fd, or Fc for HY)
	FetchesFi float64 // network-index PIR accesses
}

// RunWorkload executes cfg.Queries uniform random s–t queries (the §7.1
// workload) and averages the Table 3 cost components. The query pair
// sequence is deterministic in cfg.Seed, so every scheme sees the same
// workload. Every answer is checked against plain Dijkstra: a cost that
// differs is an error naming the query, so no table is built on a wrong
// path.
func (r *Runner) RunWorkload(g *graph.Graph, q QueryFunc) (Agg, error) {
	var agg Agg
	var totR, totP, totC, totCl, totSv time.Duration
	var fd, fi float64
	for i, pair := range base.SamplePairs(g.NumNodes(), r.Cfg.Queries, r.Cfg.Seed) {
		s, t := pair[0], pair[1]
		res, err := q(g.Point(s), g.Point(t))
		if err != nil {
			return agg, fmt.Errorf("query %d (s=%d t=%d): %w", i, s, t, err)
		}
		want := graph.ShortestPath(g, s, t)
		if diff := res.Cost - want.Cost; diff > 1e-9 || diff < -1e-9 {
			return agg, fmt.Errorf("query %d (s=%d t=%d): cost %v, Dijkstra %v", i, s, t, res.Cost, want.Cost)
		}
		st := res.Stats
		totR += st.Response()
		totP += st.PIR
		totC += st.Comm
		totCl += st.Client
		totSv += st.Server
		fd += float64(st.Fetches[base.FileData] + st.Fetches[base.FileCombined])
		fi += float64(st.Fetches[base.FileIndex] + st.Fetches[base.FileLookup])
		agg.Queries++
	}
	n := time.Duration(agg.Queries)
	if n == 0 {
		return agg, fmt.Errorf("empty workload")
	}
	agg.Response = totR / n
	agg.PIR = totP / n
	agg.Comm = totC / n
	agg.Client = totCl / n
	agg.Server = totSv / n
	agg.FetchesFd = fd / float64(agg.Queries)
	agg.FetchesFi = fi / float64(agg.Queries)
	return agg, nil
}

// Servable pairs a database with its query function.
type Servable struct {
	Name  string
	Bytes int64
	Query QueryFunc
	DB    *lbs.Database // nil for OBF
}

// MB renders bytes as the paper's MByte axis values.
func MB(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

// Secs renders a duration as seconds, the paper's response-time axis.
func Secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }
