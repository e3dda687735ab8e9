// Package hy implements the Hybrid scheme of §6: region sets S_i,j whose
// cardinality exceeds a threshold are replaced by their subgraph G_i,j
// counterparts, trading index space for response time between CI and PI.
//
// Crucially, the network index and the region data are concatenated into a
// single physical file F_c: if they were separate, the adversary could count
// per-file accesses and learn whether a query was answered via a set or a
// subgraph, narrowing down the possible source–destination regions (§6).
// Every query fetches one F_l page, then r pages of F_c (round 3), then a
// fixed quota of F_c pages (round 4), dummy-padded either way.
package hy

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

// Build pre-processes the network into an HY database. cfg.Threshold is
// the cardinality cap: every S_i,j with more regions than this is replaced
// by G_i,j (Figure 10's tuning knob). cfg's zero fields take their
// defaults; cfg.Scheme is HY or empty, and Build refuses any other.
func Build(g *graph.Graph, cfg base.Config) (*lbs.Database, error) {
	cfg, err := cfg.ResolveFor(base.HY)
	if err != nil {
		return nil, err
	}
	codec := &base.RegionCodec{G: g}
	part, err := base.Partition(codec, cfg)
	if err != nil {
		return nil, fmt.Errorf("hy: partitioning: %w", err)
	}

	aug := border.Build(g, part)
	pre, err := precomp.Compute(aug, part, precomp.Options{Sets: true, Subgraphs: true})
	if err != nil {
		return nil, fmt.Errorf("hy: pre-computation: %w", err)
	}
	np := precomp.NumPairs(part.NumRegions)

	// Replacement: any set larger than the threshold becomes a subgraph.
	// m' is the largest remaining set (the inflation cap for compression).
	asGraph := make([]bool, np)
	mPrime := 1
	for k := 0; k < np; k++ {
		if len(pre.Sets[k]) > cfg.Threshold {
			asGraph[k] = true
		} else if len(pre.Sets[k]) > mPrime {
			mPrime = len(pre.Sets[k])
		}
	}

	// Combined file: index records first, then region pages.
	fc := pagefile.NewFile(base.FileCombined, cfg.PageSize)
	ib := base.NewIndexBuilder(fc, mPrime)
	for k := 0; k < np; k++ {
		if asGraph[k] {
			err = ib.AddGraph(pre.Subgraphs[k], !cfg.DisableCompression)
		} else {
			err = ib.AddSet(pre.Sets[k], !cfg.DisableCompression)
		}
		if err != nil {
			return nil, fmt.Errorf("hy: index pair %d: %w", k, err)
		}
	}
	spans, ords, _ := ib.Finish()
	fiPart := fc.NumPages()
	firstPage, err := base.BuildRegionData(fc, codec, 1)
	if err != nil {
		return nil, fmt.Errorf("hy: region data: %w", err)
	}

	// r: the §6 round-3 width — the widest span among *set* records.
	r := 1
	for k := 0; k < np; k++ {
		if !asGraph[k] && spans[k].Pages > r {
			r = spans[k].Pages
		}
	}
	// Round-4 quota: sets need up to m'+2 pages; subgraphs need their pages
	// beyond what round 3 already covered, plus the two region pages.
	quota := mPrime + 2
	for k := 0; k < np; k++ {
		if !asGraph[k] {
			continue
		}
		_, off := base.IndexWindow(base.LookupEntry{Page: uint32(spans[k].Page)}, r, fiPart)
		if extra := spans[k].Pages - (r - off); extra > 0 {
			if extra+2 > quota {
				quota = extra + 2
			}
		}
	}

	fl := pagefile.NewFile(base.FileLookup, cfg.PageSize)
	entries := make([]base.LookupEntry, np)
	for k := range entries {
		entries[k] = base.LookupEntry{Page: uint32(spans[k].Page), RecIndex: ords[k]}
	}
	if err := base.BuildLookup(fl, entries); err != nil {
		return nil, fmt.Errorf("hy: look-up: %w", err)
	}

	qp := plan.Plan{Rounds: []plan.Round{
		{Fetches: []plan.Fetch{{File: base.FileLookup, Count: 1}}},
		{Fetches: []plan.Fetch{{File: base.FileCombined, Count: r}}},
		{Fetches: []plan.Fetch{{File: base.FileCombined, Count: quota}}},
	}}
	hdr := &base.Header{
		Scheme:               base.HY,
		NumRegions:           part.NumRegions,
		Tree:                 part.Tree,
		RegionFirstPage:      firstPage,
		ClusterPages:         1,
		LookupEntriesPerPage: base.LookupEntriesPerPage(cfg.PageSize),
		Plan:                 qp,
		Params: map[string]int64{
			base.ParamM:        int64(mPrime),
			base.ParamMaxSpan:  int64(r),
			base.ParamIdxPages: int64(fc.NumPages()),
			base.ParamRound4:   int64(quota),
			base.ParamFiPart:   int64(fiPart),
		},
	}
	return &lbs.Database{
		Scheme: string(base.HY),
		Header: hdr.Encode(),
		Files:  []pagefile.Reader{fl, fc},
		Plan:   qp,
	}, nil
}

// Query answers one private shortest path query against an HY server.
func Query(ctx context.Context, svc lbs.Service, sPt, tPt geom.Point) (*base.Result, error) {
	ses, err := base.Open(ctx, svc, base.HY)
	if err != nil {
		return nil, err
	}
	hdr := ses.Hdr
	rs, rt := base.LocatePair(hdr, sPt, tPt)
	pairIdx := precomp.PairIndex(hdr.NumRegions, rs, rt)
	fiPart := int(hdr.MustParam(base.ParamFiPart))

	// Round 2: look-up entry.
	entry, err := ses.LookupRound(pairIdx)
	if err != nil {
		return nil, err
	}

	// Round 3: exactly r consecutive pages of the combined file, inside its
	// index part, covering at least the head of the record.
	if err := ses.NextRound(); err != nil {
		return nil, err
	}
	window, off := base.IndexWindow(entry, int(hdr.MustParam(base.ParamMaxSpan)), fiPart)
	pages, err := ses.Fetch(base.FileCombined, window)
	if err != nil {
		return nil, err
	}
	// Peek the record's total length to know whether round 4 must fetch
	// continuation pages (only multi-page subgraph records need this).
	if off >= len(pages) {
		return nil, fmt.Errorf("hy: look-up entry points past the index part")
	}
	recPages, total, err := recordPages(pages[off:], entry, fiPart)
	if err != nil {
		return nil, err
	}

	// Round 4: continuation pages — one frame each, like the region pages
	// and the padding — then the two host regions and, for a set record,
	// its regions, all sent with the round's padding before any is decoded.
	// A set record always fits round 3's window (r is the widest set), so
	// only a subgraph record has continuation pages, and a set's regions are
	// known before the round goes out.
	if err := ses.NextRound(); err != nil {
		return nil, err
	}
	var cont []lbs.Frame
	for i := len(recPages); i < total; i++ {
		cont = append(cont, lbs.Frame{File: base.FileCombined, Pages: []int{int(entry.Page) + i}})
	}
	regions := []kdtree.RegionID{rs, rt}
	var rec base.IndexRecord
	if len(cont) == 0 {
		if rec, err = base.DecodeIndexRecord(recPages, 0, int(entry.RecIndex)); err != nil {
			return nil, err
		}
		for _, rg := range rec.Set {
			if rg != rs && rg != rt {
				regions = append(regions, rg)
			}
		}
	}
	contPages, nodes, err := ses.FetchRegions(base.FileCombined, regions, cont...)
	if err != nil {
		return nil, err
	}
	if len(cont) > 0 {
		for _, p := range contPages {
			recPages = append(recPages, p[0])
		}
		if rec, err = base.DecodeIndexRecord(recPages, 0, int(entry.RecIndex)); err != nil {
			return nil, err
		}
		if rec.IsSet() {
			return nil, fmt.Errorf("hy: set record runs past the round-3 window")
		}
	}
	cg := ses.Graph()
	if !rec.IsSet() {
		if err := cg.AddSubgraphEdges(rec.Edges); err != nil {
			return nil, err
		}
	}

	sNode := cg.Nearest(sPt, nodes[0])
	tNode := cg.Nearest(tPt, nodes[1])
	cost, path := cg.Dijkstra(sNode, tNode)
	return ses.Finish(cost, path, sNode, tNode)
}

// recordPages cuts the round-3 window, taken from the record's first page
// on, down to the record's own pages and reports how many pages the record
// spans in total.
func recordPages(pages [][]byte, entry base.LookupEntry, fiPart int) ([][]byte, int, error) {
	// Small records (ordinal addressing) always fit in their single page.
	// A multi-page record starts at its page boundary with ordinal 0; its
	// length prefix tells the full span.
	d := pagefile.NewDec(pages[0])
	n := int(d.U32())
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	ps := len(pages[0])
	total := (4 + n + ps - 1) / ps
	if total <= 1 || entry.RecIndex > 0 {
		total = 1
	}
	if int(entry.Page)+total > fiPart {
		return nil, 0, fmt.Errorf("hy: record overruns the index part")
	}
	have := min(len(pages), total)
	return pages[:have:have], total, nil
}
