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

// Options configures the build.
type Options struct {
	PageSize int
	// ClusterPages > 1 selects PI* (§6): each region spans that many F_d
	// pages, shrinking the region count and hence the index size, at the
	// price of 2·ClusterPages region-data fetches per query.
	ClusterPages int
	// Packed selects §5.6 packing; false reproduces PI-P (Figure 8).
	Packed bool
	// Compress enables subgraph delta compression; false reproduces PI-C.
	Compress bool
	// CompactData switches the region-data file to the losslessly
	// compressed record layout (§8 future-work extension).
	CompactData bool
}

// DefaultOptions is the plain PI of the experiments.
func DefaultOptions() Options {
	return Options{PageSize: pagefile.DefaultPageSize, ClusterPages: 1, Packed: true, Compress: true}
}

// SchemeName identifies PI databases (PI* reports "PI*").
const SchemeName = "PI"

// SchemeNameClustered is the PI* variant name.
const SchemeNameClustered = "PI*"

// Build pre-processes the network into a PI (or PI*) database.
func Build(g *graph.Graph, opt Options) (*lbs.Database, error) {
	if opt.PageSize == 0 {
		opt.PageSize = pagefile.DefaultPageSize
	}
	if opt.ClusterPages == 0 {
		opt.ClusterPages = 1
	}
	name := SchemeName
	if opt.ClusterPages > 1 {
		name = SchemeNameClustered
	}
	codec := &base.RegionCodec{G: g, Compact: opt.CompactData}
	capacity := codec.Capacity(opt.PageSize * opt.ClusterPages)
	var (
		part *kdtree.Partition
		err  error
	)
	if opt.Packed {
		part, err = kdtree.BuildPacked(g, codec.SizeFunc(), capacity)
	} else {
		part, err = kdtree.BuildPlain(g, codec.SizeFunc(), capacity)
	}
	if err != nil {
		return nil, fmt.Errorf("pi: partitioning: %w", err)
	}
	codec.Part = part

	aug := border.Build(g, part)
	pre, err := precomp.Compute(aug, part, precomp.Options{Subgraphs: true})
	if err != nil {
		return nil, fmt.Errorf("pi: pre-computation: %w", err)
	}

	fd := pagefile.NewFile(base.FileData, opt.PageSize)
	firstPage, err := base.BuildRegionData(fd, codec, opt.ClusterPages)
	if err != nil {
		return nil, fmt.Errorf("pi: region data: %w", err)
	}

	fi := pagefile.NewFile(base.FileIndex, opt.PageSize)
	ib := base.NewIndexBuilder(fi, 1) // m unused for subgraph records
	np := precomp.NumPairs(part.NumRegions)
	for k := 0; k < np; k++ {
		if err := ib.AddGraph(pre.Subgraphs[k], opt.Compress); err != nil {
			return nil, fmt.Errorf("pi: index pair %d: %w", k, err)
		}
	}
	spans, ords, maxSpan := ib.Finish()

	fl := pagefile.NewFile(base.FileLookup, opt.PageSize)
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
			{File: base.FileData, Count: 2 * opt.ClusterPages},
		}},
	}}
	hdr := &base.Header{
		Scheme:               name,
		NumRegions:           part.NumRegions,
		Tree:                 part.Tree,
		RegionFirstPage:      firstPage,
		ClusterPages:         opt.ClusterPages,
		LookupEntriesPerPage: base.LookupEntriesPerPage(opt.PageSize),
		Plan:                 qp,
		Params: map[string]int64{
			base.ParamMaxSpan:  int64(maxSpan),
			base.ParamIdxPages: int64(fi.NumPages()),
			base.ParamCompact:  boolParam(opt.CompactData),
		},
	}
	return &lbs.Database{
		Scheme: name,
		Header: hdr.Encode(),
		Files:  []pagefile.Reader{fl, fi, fd},
		Plan:   qp,
	}, nil
}

// boolParam encodes a build flag as a header parameter.
func boolParam(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Query answers one private shortest path query against a PI / PI* server.
func Query(ctx context.Context, svc lbs.Service, sPt, tPt geom.Point) (*base.Result, error) {
	ses, err := base.Open(ctx, svc, SchemeName, SchemeNameClustered)
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
