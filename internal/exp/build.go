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
	"repro/internal/kdtree"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/precomp"
	"repro/internal/scheme/af"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/hy"
	"repro/internal/scheme/lm"
	"repro/internal/scheme/obf"
	"repro/internal/scheme/pi"
)

// serve wraps an lbs database into a Servable.
func (r *Runner) serve(name string, db *lbs.Database, q func(context.Context, lbs.Service, geom.Point, geom.Point) (*base.Result, error)) (Servable, error) {
	// Experiments may legitimately exceed the real PIR size limit at full
	// scale (that is one of the paper's findings); the harness keeps
	// serving and flags the overflow in the tables instead of refusing.
	model := r.Model
	if db.LargestFileBytes() > model.MaxFileBytes() {
		model.SCPMemory = 1 << 40
	}
	srv, err := lbs.NewServer(db, model, nil)
	if err != nil {
		return Servable{}, err
	}
	return Servable{
		Name:  name,
		Bytes: db.TotalBytes(),
		DB:    db,
		Query: func(s, t geom.Point) (*base.Result, error) { return q(context.Background(), srv, s, t) },
	}, nil
}

// BuildCI builds CI with optional ablations.
func (r *Runner) BuildCI(g *graph.Graph, packed, compress bool) (Servable, error) {
	opt := ci.DefaultOptions()
	opt.Packed, opt.Compress = packed, compress
	db, err := ci.Build(g, opt)
	if err != nil {
		return Servable{}, fmt.Errorf("CI build: %w", err)
	}
	name := "CI"
	if !packed {
		name = "CI-P"
	}
	if !compress {
		name = "CI-C"
	}
	return r.serve(name, db, ci.Query)
}

// BuildPI builds PI (cluster=1) or PI* with optional ablations.
func (r *Runner) BuildPI(g *graph.Graph, cluster int, packed, compress bool) (Servable, error) {
	opt := pi.DefaultOptions()
	opt.ClusterPages = cluster
	opt.Packed, opt.Compress = packed, compress
	db, err := pi.Build(g, opt)
	if err != nil {
		return Servable{}, fmt.Errorf("PI build: %w", err)
	}
	name := "PI"
	if cluster > 1 {
		name = fmt.Sprintf("PI*(%d)", cluster)
	}
	if !packed {
		name = "PI-P"
	}
	if !compress {
		name = "PI-C"
	}
	return r.serve(name, db, pi.Query)
}

// BuildHY builds HY at the given set-cardinality threshold.
func (r *Runner) BuildHY(g *graph.Graph, threshold int) (Servable, error) {
	opt := hy.DefaultOptions()
	opt.Threshold = threshold
	db, err := hy.Build(g, opt)
	if err != nil {
		return Servable{}, fmt.Errorf("HY build: %w", err)
	}
	return r.serve(fmt.Sprintf("HY(%d)", threshold), db, hy.Query)
}

// BuildLM builds the Landmark baseline. Plan derivation samples the exact
// evaluation workload plus extra random and extremal pairs, standing in for
// the paper's derivation over all V² pairs, which is quadratic.
func (r *Runner) BuildLM(g *graph.Graph, landmarks int) (Servable, error) {
	opt := lm.DefaultOptions()
	opt.Landmarks = landmarks
	opt.DeriveSeed = r.Cfg.Seed
	opt.DeriveQueries = r.Cfg.Queries + 256
	opt.SafetyMargin = 1.0
	db, err := lm.Build(g, opt)
	if err != nil {
		return Servable{}, fmt.Errorf("LM build: %w", err)
	}
	return r.serve("LM", db, lm.Query)
}

// BuildAF builds the Arc-flag baseline; plan derivation as in BuildLM.
func (r *Runner) BuildAF(g *graph.Graph, regions int) (Servable, error) {
	opt := af.DefaultOptions()
	opt.Regions = regions
	opt.DeriveSeed = r.Cfg.Seed
	opt.DeriveQueries = r.Cfg.Queries + 256
	opt.SafetyMargin = 1.0
	db, err := af.Build(g, opt)
	if err != nil {
		return Servable{}, fmt.Errorf("AF build: %w", err)
	}
	return r.serve("AF", db, af.Query)
}

// BuildOBF builds the obfuscation baseline with |S| = |T| = setSize.
func (r *Runner) BuildOBF(g *graph.Graph, setSize int) (Servable, error) {
	opt := obf.DefaultOptions()
	opt.SetSize = setSize
	opt.Seed = r.Cfg.Seed
	srv, err := obf.NewServer(g, r.Model, opt)
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
// (Figure 10a) without building the full database.
func (r *Runner) SetSizeHistogram(g *graph.Graph) (sizes []int, m int, err error) {
	codec := &base.RegionCodec{G: g}
	part, err := kdtree.BuildPacked(g, codec.SizeFunc(), costmodel.Default().PageSize)
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
