package base

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/kdtree"
	"repro/internal/pagefile"
)

// Scheme names a private shortest path scheme or baseline.
type Scheme string

// The schemes of the paper (§5, §6) and its baselines (§4).
const (
	CI     Scheme = "CI"
	PI     Scheme = "PI"
	PIStar Scheme = "PI*"
	HY     Scheme = "HY"
	LM     Scheme = "LM"
	AF     Scheme = "AF"
)

// Config selects and tunes a scheme's build. It is the one declaration of
// every build tunable: a zero field selects its default (see Resolve), so
// Config{Scheme: s} builds the database of the paper's experiments, and
// every scheme's Build takes it as is.
type Config struct {
	Scheme Scheme
	// PageSize is the page size in bytes (0 = the 4 KB of Table 2).
	PageSize int

	// DisablePacking cuts plain KD-tree regions (§5.1) instead of packed
	// ones (§5.6), DisableCompression stores index records without the
	// delta compression of §5.5: the paper's ablations (CI-P, CI-C, PI-P,
	// PI-C; Fig. 8–9). Packing applies to CI, PI, PI*, HY and LM,
	// compression to CI, PI, PI* and HY.
	DisablePacking     bool
	DisableCompression bool
	// CompactData switches CI's, PI's and PI*'s region-data file to the
	// losslessly compressed record layout (§8 future work).
	CompactData bool

	// ClusterPages tunes PI* (pages per region; 0 = 2, at least 2). Every
	// other scheme builds with 1.
	ClusterPages int
	// Threshold tunes HY: a region set of more regions than this is
	// replaced by its subgraph (0 = 40; Fig. 10).
	Threshold int
	// Landmarks tunes LM: the anchor count (0 = 5; Fig. 5).
	Landmarks int
	// Regions tunes AF: the arc-flag bits per edge (0 = 8).
	Regions int

	// Seed drives the randomized build steps: the endpoint pairs LM's and
	// AF's plans are derived from (0 = 1).
	Seed int64
	// DeriveQueries sizes that sample (0 = 512), and SafetyMargin
	// multiplies the most region fetches any sampled pair needs, to cover
	// the pairs the sample missed (0 = 1.25; below 1 counts as 1).
	DeriveQueries int
	SafetyMargin  float64
}

// Resolve returns c with every zero tunable set to its default, or an
// error naming the first field out of range: a negative size, count or
// margin, or a PI* cluster of one page (that is PI).
func (c Config) Resolve() (Config, error) {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"PageSize", c.PageSize}, {"ClusterPages", c.ClusterPages}, {"Threshold", c.Threshold},
		{"Landmarks", c.Landmarks}, {"Regions", c.Regions}, {"DeriveQueries", c.DeriveQueries},
	} {
		if f.v < 0 {
			return c, fmt.Errorf("build config: %s %d is negative", f.name, f.v)
		}
	}
	if !(c.SafetyMargin >= 0) || math.IsInf(c.SafetyMargin, 1) {
		return c, fmt.Errorf("build config: SafetyMargin %v is not a finite non-negative number", c.SafetyMargin)
	}
	switch {
	case c.Scheme != PIStar:
		c.ClusterPages = 1
	case c.ClusterPages == 1:
		return c, fmt.Errorf("build config: ClusterPages 1 for %s (a clustered region spans at least 2 pages)", PIStar)
	}
	c.PageSize = cmp.Or(c.PageSize, pagefile.DefaultPageSize)
	c.ClusterPages = cmp.Or(c.ClusterPages, 2)
	c.Threshold = cmp.Or(c.Threshold, 40)
	c.Landmarks = cmp.Or(c.Landmarks, 5)
	c.Regions = cmp.Or(c.Regions, 8)
	c.Seed = cmp.Or(c.Seed, 1)
	c.DeriveQueries = cmp.Or(c.DeriveQueries, 512)
	c.SafetyMargin = cmp.Or(c.SafetyMargin, 1.25)
	return c, nil
}

// ResolveFor is Resolve in the Build of a package that builds the schemes
// own: it first refuses a Config naming any other scheme, before any work,
// because the defaults Resolve fills in depend on the scheme (only PI*
// clusters its regions). An empty Scheme is the package's own.
func (c Config) ResolveFor(own ...Scheme) (Config, error) {
	if c.Scheme != "" && !slices.Contains(own, c.Scheme) {
		names := make([]string, len(own))
		for i, s := range own {
			names[i] = string(s)
		}
		return c, fmt.Errorf("build config: Scheme %q is not %s", c.Scheme, strings.Join(names, " or "))
	}
	return c.Resolve()
}

// Partition cuts codec.G into the regions of CI, PI, PI*, HY or LM under c:
// the packed KD-tree of §5.6 (the plain one of §5.1 under DisablePacking),
// every region's records fitting a cluster of PageSize·ClusterPages bytes,
// c's zero fields taking their defaults. The partition is also set as
// codec.Part.
func Partition(codec *RegionCodec, c Config) (*kdtree.Partition, error) {
	c, err := c.Resolve()
	if err != nil {
		return nil, err
	}
	cut := kdtree.BuildPacked
	if c.DisablePacking {
		cut = kdtree.BuildPlain
	}
	part, err := cut(codec.G, codec.SizeFunc(), codec.Capacity(c.PageSize*c.ClusterPages))
	if err != nil {
		return nil, err
	}
	codec.Part = part
	return part, nil
}
