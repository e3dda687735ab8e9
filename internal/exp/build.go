package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/border"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/precomp"
	"repro/internal/scheme/base"
	"repro/internal/scheme/obf"
	"repro/privsp"
)

// Build builds g under cfg and hosts it exactly as a user would: with
// privsp.Build, seeded by buildSeed, and privsp.Serve, queried through
// ShortestPath. name labels the table row.
func (r *Runner) Build(name string, g *graph.Graph, cfg privsp.Config) (Servable, error) {
	cfg.Seed = r.buildSeed()
	db, err := privsp.Build(&privsp.Network{G: g}, cfg)
	if err != nil {
		return Servable{}, fmt.Errorf("%s build: %w", name, err)
	}
	srv, err := privsp.Serve(db)
	if err != nil {
		return Servable{}, fmt.Errorf("%s: %w", name, err)
	}
	return Servable{
		Name:  name,
		Bytes: db.TotalBytes(),
		DB:    db.LBS(),
		Query: func(s, t geom.Point) (*base.Result, error) { return srv.ShortestPath(context.Background(), s, t) },
	}, nil
}

// buildSeed seeds privsp's randomized build steps (LM and AF sample the
// endpoint pairs their plans are derived from). It is not the run's seed:
// RunWorkload draws the timed pairs from that one, with the same sampler,
// and a plan derived from the pairs it is timed on could never overflow.
func (r *Runner) buildSeed() int64 { return r.Cfg.Seed + 1 }

// BuildOBF builds the obfuscation baseline with |S| = |T| = setSize.
func (r *Runner) BuildOBF(g *graph.Graph, setSize int) (Servable, error) {
	opt := obf.DefaultOptions()
	opt.SetSize = setSize
	opt.Seed = r.Cfg.Seed
	srv, err := obf.NewServer(g, costmodel.Default(), opt)
	if err != nil {
		return Servable{}, err
	}
	return Servable{
		Name:  fmt.Sprintf("OBF(%d)", setSize),
		Bytes: srv.DatabaseBytes(),
		Query: func(s, t geom.Point) (*base.Result, error) { return srv.Query(context.Background(), s, t) },
	}, nil
}

// Utilization computes the F_d space utilization of a built database: raw
// node-record bytes over allocated region-data bytes (Figure 8a's metric).
func Utilization(g *graph.Graph, db *lbs.Database) float64 {
	codec := &base.RegionCodec{G: g}
	raw := 0
	for v := 0; v < g.NumNodes(); v++ {
		raw += codec.NodeSize(graph.NodeID(v))
	}
	fd := db.File(base.FileData)
	if fd == nil || pagefile.Bytes(fd) == 0 {
		return 0
	}
	return float64(raw) / float64(pagefile.Bytes(fd))
}

// SetSizeHistogram computes the |S_i,j| distribution of CI's network index
// (Figure 10a) without building the full database, from the partition CI
// builds.
func (r *Runner) SetSizeHistogram(g *graph.Graph) (sizes []int, m int, err error) {
	part, err := base.Partition(&base.RegionCodec{G: g}, privsp.Config{Scheme: privsp.CI})
	if err != nil {
		return nil, 0, err
	}
	aug := border.Build(g, part)
	pre, err := precomp.Compute(aug, part, precomp.Options{Sets: true})
	if err != nil {
		return nil, 0, err
	}
	for _, s := range pre.Sets {
		sizes = append(sizes, len(s))
	}
	return sizes, pre.MaxSetSize, nil
}

// ScaledSizeLimit is the PIR file-size limit adjusted to the configured
// network scale: at scale 1.0 it equals the paper's 2.5 GB (IBM 4764); at
// smaller scales it shrinks as scale^1.75 — empirically matching how the
// passage index shrinks (pair count falls quadratically, but per-pair
// subgraphs shrink sublinearly and compress better at full scale). This
// keeps the paper's "PI no longer fits, tune HY/PI* to the budget"
// storyline meaningful on laptop-sized networks.
func (r *Runner) ScaledSizeLimit() int64 {
	full := float64(costmodel.Default().MaxFileBytes())
	return int64(full * math.Pow(r.Cfg.Scale, 1.75))
}

// PresetName renders the paper's dataset abbreviations.
func PresetName(p gen.Preset) string {
	names := map[gen.Preset]string{
		gen.Oldenburg: "Old.", gen.Germany: "Ger.", gen.Argentina: "Arg.",
		gen.Denmark: "Den.", gen.India: "Ind.", gen.NorthAmerica: "Nor.",
	}
	return names[p]
}
