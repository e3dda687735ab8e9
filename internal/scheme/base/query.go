package base

import (
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/lbs"
)

// Standard header parameter keys shared by the schemes.
const (
	ParamM        = "m"        // CI: max |S_i,j| (page quota of the F_d round)
	ParamMaxSpan  = "maxSpan"  // max pages spanned by an index record
	ParamIdxPages = "idxPages" // page count of the index file (for the §5.4 boundary case)
	ParamLMDim    = "lmDim"    // LM: landmark vector dimension
	ParamFlagBy   = "flagBy"   // AF: flag bytes per half-edge
	ParamRound4   = "round4"   // HY: page quota of round 4
	ParamFiPart   = "fiPart"   // HY: pages of the F_i part inside the combined file
	ParamCompact  = "compact"  // 1 = compact region-data layout (§8 extension)
)

// Result is a completed private shortest path query.
type Result struct {
	// Path is the node sequence (original network IDs); empty when the
	// destination is unreachable.
	Path []graph.NodeID
	Cost float64
	// SnappedSource/Dest are the network nodes the query coordinates were
	// snapped to.
	SnappedSource, SnappedDest graph.NodeID
	Stats                      lbs.Stats
	// Trace is the adversary-visible access transcript of this query
	// (Theorem 1: identical for every query of a scheme).
	Trace string
}

// Found reports whether a path exists.
func (r *Result) Found() bool { return len(r.Path) > 0 }

// LookupRound runs the look-up round of CI, PI and HY: it begins the next
// round and fetches the one F_l page holding pairIdx's entry.
func (s *Session) LookupRound(pairIdx int) (LookupEntry, error) {
	if err := s.NextRound(); err != nil {
		return LookupEntry{}, err
	}
	page, err := s.Fetch(FileLookup, []int{LookupPageFor(pairIdx, s.Hdr.LookupEntriesPerPage)})
	if err != nil {
		return LookupEntry{}, err
	}
	return ParseLookupEntry(page[0], pairIdx, s.Hdr.LookupEntriesPerPage)
}

// IndexRound runs CI's index round: it begins the next round and fetches, as
// one frame, the ParamMaxSpan-page window of F_i that holds entry's record.
func (s *Session) IndexRound(entry LookupEntry) (IndexRecord, error) {
	if err := s.NextRound(); err != nil {
		return IndexRecord{}, err
	}
	window, off := IndexWindow(entry, int(s.Hdr.MustParam(ParamMaxSpan)), int(s.Hdr.MustParam(ParamIdxPages)))
	pages, err := s.Fetch(FileIndex, window)
	if err != nil {
		return IndexRecord{}, err
	}
	return DecodeIndexRecord(pages, off, int(entry.RecIndex))
}

// IndexWindow picks the maxSpan consecutive pages of an index file to fetch
// for the record at entry.Page: positioned so the window both stays inside
// the file's filePages pages and covers the record (footnote 5's
// boundary-case rule). off is the offset of entry.Page within the window.
func IndexWindow(entry LookupEntry, maxSpan, filePages int) (pages []int, off int) {
	start := max(min(int(entry.Page), filePages-maxSpan), 0)
	for i := 0; i < maxSpan && start+i < filePages; i++ {
		pages = append(pages, start+i)
	}
	return pages, int(entry.Page) - start
}

// LocatePair maps the query endpoints to their host regions via the
// header's KD-tree (round 1 client-side work).
func LocatePair(hdr *Header, s, t geom.Point) (kdtree.RegionID, kdtree.RegionID) {
	return hdr.Tree.Locate(s), hdr.Tree.Locate(t)
}
