// Package ci implements the Concise Index scheme of §5: the database
// comprises a header (F_h), a dense look-up file (F_l), a network index
// (F_i) holding the S_i,j region sets, and a region-data file (F_d) with one
// page per packed KD-tree region. Every query runs four rounds — header,
// one F_l page, maxSpan F_i pages, and m+2 F_d pages — so all queries are
// indistinguishable (Theorem 1).
package ci

import (
	"context"
	"fmt"

	"repro/internal/border"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/plan"
	"repro/internal/precomp"
	"repro/internal/scheme/base"
)

// Build pre-processes the network into a CI database. cfg's zero fields
// take their defaults; DisablePacking and DisableCompression reproduce the
// CI-P and CI-C ablations of Figures 8–9, and CompactData switches the
// region data to the compact record layout, transparently to queries.
// cfg.Scheme is CI or empty; Build refuses any other.
func Build(g *graph.Graph, cfg base.Config) (*lbs.Database, error) {
	cfg, err := cfg.ResolveFor(base.CI)
	if err != nil {
		return nil, err
	}
	codec := &base.RegionCodec{G: g, Compact: cfg.CompactData}
	part, err := base.Partition(codec, cfg)
	if err != nil {
		return nil, fmt.Errorf("ci: partitioning: %w", err)
	}

	aug := border.Build(g, part)
	pre, err := precomp.Compute(aug, part, precomp.Options{Sets: true})
	if err != nil {
		return nil, fmt.Errorf("ci: pre-computation: %w", err)
	}
	m := pre.MaxSetSize
	if m == 0 {
		m = 1 // degenerate single-region networks still need a valid plan
	}

	fd := pagefile.NewFile(base.FileData, cfg.PageSize)
	firstPage, err := base.BuildRegionData(fd, codec, 1)
	if err != nil {
		return nil, fmt.Errorf("ci: region data: %w", err)
	}

	fi := pagefile.NewFile(base.FileIndex, cfg.PageSize)
	ib := base.NewIndexBuilder(fi, m)
	np := precomp.NumPairs(part.NumRegions)
	for k := 0; k < np; k++ {
		if err := ib.AddSet(pre.Sets[k], !cfg.DisableCompression); err != nil {
			return nil, fmt.Errorf("ci: index pair %d: %w", k, err)
		}
	}
	spans, ords, maxSpan := ib.Finish()

	fl := pagefile.NewFile(base.FileLookup, cfg.PageSize)
	entries := make([]base.LookupEntry, np)
	for k := range entries {
		entries[k] = base.LookupEntry{Page: uint32(spans[k].Page), RecIndex: ords[k]}
	}
	if err := base.BuildLookup(fl, entries); err != nil {
		return nil, fmt.Errorf("ci: look-up: %w", err)
	}

	qp := plan.Plan{Rounds: []plan.Round{
		{Fetches: []plan.Fetch{{File: base.FileLookup, Count: 1}}},
		{Fetches: []plan.Fetch{{File: base.FileIndex, Count: maxSpan}}},
		{Fetches: []plan.Fetch{{File: base.FileData, Count: m + 2}}},
	}}
	hdr := &base.Header{
		Scheme:               base.CI,
		NumRegions:           part.NumRegions,
		Tree:                 part.Tree,
		RegionFirstPage:      firstPage,
		ClusterPages:         1,
		LookupEntriesPerPage: base.LookupEntriesPerPage(cfg.PageSize),
		Plan:                 qp,
		Params: map[string]int64{
			base.ParamM:        int64(m),
			base.ParamMaxSpan:  int64(maxSpan),
			base.ParamIdxPages: int64(fi.NumPages()),
			base.ParamCompact:  codec.CompactParam(),
		},
	}
	return &lbs.Database{
		Scheme: string(base.CI),
		Header: hdr.Encode(),
		Files:  []pagefile.Reader{fl, fi, fd},
		Plan:   qp,
	}, nil
}

// Query answers one private shortest path query against a CI server. The
// session keeps the access pattern on the public plan, padding with dummy
// retrievals, regardless of the endpoints.
func Query(ctx context.Context, svc lbs.Service, sPt, tPt geom.Point) (*base.Result, error) {
	// Round 1: header.
	ses, err := base.Open(ctx, svc, base.CI)
	if err != nil {
		return nil, err
	}
	hdr := ses.Hdr
	rs, rt := base.LocatePair(hdr, sPt, tPt)
	pairIdx := precomp.PairIndex(hdr.NumRegions, rs, rt)

	// Round 2: one look-up page.
	entry, err := ses.LookupRound(pairIdx)
	if err != nil {
		return nil, err
	}

	// Round 3: maxSpan consecutive index pages.
	rec, err := ses.IndexRound(entry)
	if err != nil {
		return nil, err
	}
	if !rec.IsSet() {
		return nil, fmt.Errorf("ci: index record is not a region set")
	}

	// Round 4: R_s, R_t and the regions of S_s,t, sent with the padding
	// that fills the round's m+2 pages before any of them is decoded.
	if err := ses.NextRound(); err != nil {
		return nil, err
	}
	regions := []kdtree.RegionID{rs, rt}
	for _, r := range rec.Set {
		if r != rs && r != rt { // inflation may re-list the endpoints
			regions = append(regions, r)
		}
	}
	_, nodes, err := ses.FetchRegions(base.FileData, regions)
	if err != nil {
		return nil, err
	}

	// Client-side: snap and solve over the graph the fetches decoded into.
	cg := ses.Graph()
	sNode := cg.Nearest(sPt, nodes[0])
	tNode := cg.Nearest(tPt, nodes[1])
	cost, path := cg.Dijkstra(sNode, tNode)
	return ses.Finish(cost, path, sNode, tNode)
}
