// Package pi implements the Passage Index scheme of §6 and its clustered
// variant PI* : instead of listing the intermediate regions (CI), the
// network index materializes for every region pair the exact subgraph G_i,j
// of edges on shortest paths between their border nodes. A query then needs
// only three rounds: header; one look-up page; h index pages plus the two
// (or 2·c for PI*) region-data pages of R_s and R_t.
package pi

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

// Build pre-processes the network into a PI database, or a PI* one when
// cfg.Scheme is PIStar: each region then spans cfg.ClusterPages F_d pages,
// shrinking the region count and hence the index size, at the price of
// 2·ClusterPages region-data fetches per query (§6). cfg's zero fields
// take their defaults; DisablePacking and DisableCompression reproduce the
// PI-P and PI-C ablations of Figures 8–9, and CompactData switches the
// region data to the compact record layout. cfg.Scheme is PI, PI* or empty
// (PI); Build refuses any other.
func Build(g *graph.Graph, cfg base.Config) (*lbs.Database, error) {
	cfg, err := cfg.ResolveFor(base.PI, base.PIStar)
	if err != nil {
		return nil, err
	}
	name := base.PI
	if cfg.Scheme == base.PIStar {
		name = base.PIStar
	}
	codec := &base.RegionCodec{G: g, Compact: cfg.CompactData}
	part, err := base.Partition(codec, cfg)
	if err != nil {
		return nil, fmt.Errorf("pi: partitioning: %w", err)
	}

	aug := border.Build(g, part)
	pre, err := precomp.Compute(aug, part, precomp.Options{Subgraphs: true})
	if err != nil {
		return nil, fmt.Errorf("pi: pre-computation: %w", err)
	}

	fd := pagefile.NewFile(base.FileData, cfg.PageSize)
	firstPage, err := base.BuildRegionData(fd, codec, cfg.ClusterPages)
	if err != nil {
		return nil, fmt.Errorf("pi: region data: %w", err)
	}

	fi := pagefile.NewFile(base.FileIndex, cfg.PageSize)
	ib := base.NewIndexBuilder(fi, 1) // m unused for subgraph records
	np := precomp.NumPairs(part.NumRegions)
	for k := 0; k < np; k++ {
		if err := ib.AddGraph(pre.Subgraphs[k], !cfg.DisableCompression); err != nil {
			return nil, fmt.Errorf("pi: index pair %d: %w", k, err)
		}
	}
	spans, ords, maxSpan := ib.Finish()

	fl := pagefile.NewFile(base.FileLookup, cfg.PageSize)
	entries := make([]base.LookupEntry, np)
	for k := range entries {
		entries[k] = base.LookupEntry{Page: uint32(spans[k].Page), RecIndex: ords[k]}
	}
	if err := base.BuildLookup(fl, entries); err != nil {
		return nil, fmt.Errorf("pi: look-up: %w", err)
	}

	// §6: round 3 fetches h index pages and the two region clusters.
	qp := plan.Plan{Rounds: []plan.Round{
		{Fetches: []plan.Fetch{{File: base.FileLookup, Count: 1}}},
		{Fetches: []plan.Fetch{
			{File: base.FileIndex, Count: maxSpan},
			{File: base.FileData, Count: 2 * cfg.ClusterPages},
		}},
	}}
	hdr := &base.Header{
		Scheme:               name,
		NumRegions:           part.NumRegions,
		Tree:                 part.Tree,
		RegionFirstPage:      firstPage,
		ClusterPages:         cfg.ClusterPages,
		LookupEntriesPerPage: base.LookupEntriesPerPage(cfg.PageSize),
		Plan:                 qp,
		Params: map[string]int64{
			base.ParamMaxSpan:  int64(maxSpan),
			base.ParamIdxPages: int64(fi.NumPages()),
			base.ParamCompact:  codec.CompactParam(),
		},
	}
	return &lbs.Database{
		Scheme: string(name),
		Header: hdr.Encode(),
		Files:  []pagefile.Reader{fl, fi, fd},
		Plan:   qp,
	}, nil
}

// Query answers one private shortest path query against a PI / PI* server.
func Query(ctx context.Context, svc lbs.Service, sPt, tPt geom.Point) (*base.Result, error) {
	ses, err := base.Open(ctx, svc, base.PI, base.PIStar)
	if err != nil {
		return nil, err
	}
	hdr := ses.Hdr
	rs, rt := base.LocatePair(hdr, sPt, tPt)
	pairIdx := precomp.PairIndex(hdr.NumRegions, rs, rt)

	entry, err := ses.LookupRound(pairIdx)
	if err != nil {
		return nil, err
	}

	// Round 3: h index pages, then the two region clusters, all sent before
	// the record or a region is decoded.
	if err := ses.NextRound(); err != nil {
		return nil, err
	}
	window, off := base.IndexWindow(entry, int(hdr.MustParam(base.ParamMaxSpan)), int(hdr.MustParam(base.ParamIdxPages)))
	lead, nodes, err := ses.FetchRegions(base.FileData, []kdtree.RegionID{rs, rt},
		lbs.Frame{File: base.FileIndex, Pages: window})
	if err != nil {
		return nil, err
	}
	rec, err := base.DecodeIndexRecord(lead[0], off, int(entry.RecIndex))
	if err != nil {
		return nil, err
	}
	if rec.IsSet() {
		return nil, fmt.Errorf("pi: index record is not a subgraph")
	}

	cg := ses.Graph()
	if err := cg.AddSubgraphEdges(rec.Edges); err != nil {
		return nil, err
	}
	sNode := cg.Nearest(sPt, nodes[0])
	tNode := cg.Nearest(tPt, nodes[1])
	cost, path := cg.Dijkstra(sNode, tNode)
	return ses.Finish(cost, path, sNode, tNode)
}
