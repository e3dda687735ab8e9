// Package base holds the machinery shared by every scheme in §4–§6: the
// header file (F_h) with its KD-tree and query-plan payload, the region-data
// record codec (F_d pages), the dense look-up file (F_l), the delta
// compression of network-index records (§5.5), and the client-side graph a
// querying client assembles from fetched pages.
package base

import (
	"fmt"
	"sort"

	"repro/internal/kdtree"
	"repro/internal/pagefile"
	"repro/internal/plan"
)

// Canonical file names used across schemes (§5: "the header, the look-up,
// the network index and the region data file").
const (
	FileHeader   = "Fh"
	FileLookup   = "Fl"
	FileIndex    = "Fi"
	FileData     = "Fd"
	FileCombined = "Fc" // HY: Fi and Fd concatenated (§6)
)

// Header is the content of F_h (§5.3): everything a client needs before any
// PIR access — the partitioning tree (mapping coordinates to regions), the
// region→page directory, the public query plan, and scheme parameters. It
// is downloaded in full by every client, so it leaks nothing query-specific.
type Header struct {
	Scheme     Scheme
	NumRegions int
	Tree       *kdtree.Tree
	// RegionFirstPage maps each region to its first page in the region-data
	// file (F_d, or the combined file for HY).
	RegionFirstPage []uint32
	// ClusterPages is the number of pages each region spans (1 except PI*).
	ClusterPages int
	// LookupEntriesPerPage fixes F_l addressing.
	LookupEntriesPerPage int
	Plan                 plan.Plan
	// Params carries scheme-specific scalars (m, maxSpan, landmark count,
	// flag bytes, ...). Keys are sorted on encode for determinism.
	Params map[string]int64
}

// Param fetches a scheme parameter, with a clear error when absent.
func (h *Header) Param(key string) (int64, error) {
	v, ok := h.Params[key]
	if !ok {
		return 0, fmt.Errorf("base: header of %s lacks param %q", h.Scheme, key)
	}
	return v, nil
}

// MustParam is Param for keys the scheme always writes.
func (h *Header) MustParam(key string) int64 {
	v, err := h.Param(key)
	if err != nil {
		panic(err)
	}
	return v
}

// Encode serializes the header.
func (h *Header) Encode() []byte {
	e := pagefile.NewEnc(1024)
	e.U8(uint8(len(h.Scheme)))
	e.Raw([]byte(h.Scheme))
	e.U8(0) // the directed-network byte: networks are undirected, so always 0
	e.U32(uint32(h.NumRegions))
	e.U32(uint32(len(h.Tree.Nodes)))
	for _, n := range h.Tree.Nodes {
		e.U8(uint8(n.Axis))
		e.F64(n.Split)
		e.U32(uint32(int32(n.Left)))
		e.U32(uint32(int32(n.Right)))
		e.U32(uint32(int32(n.Region)))
	}
	e.U32(uint32(len(h.RegionFirstPage)))
	for _, p := range h.RegionFirstPage {
		e.U32(p)
	}
	e.U16(uint16(h.ClusterPages))
	e.U32(uint32(h.LookupEntriesPerPage))
	h.Plan.Encode(e)
	keys := make([]string, 0, len(h.Params))
	for k := range h.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U16(uint16(len(keys)))
	for _, k := range keys {
		e.U8(uint8(len(k)))
		e.Raw([]byte(k))
		e.U64(uint64(h.Params[k]))
	}
	return e.Bytes()
}

// DecodeHeader reverses Encode.
func DecodeHeader(data []byte) (*Header, error) {
	d := pagefile.NewDec(data)
	h := &Header{Params: map[string]int64{}}
	schemeLen := int(d.U8())
	h.Scheme = Scheme(d.Raw(schemeLen))
	if b := d.U8(); b != 0 {
		return nil, fmt.Errorf("base: header of %q marks a directed network (byte %d); only undirected networks are served", h.Scheme, b)
	}
	h.NumRegions = int(d.U32())
	nNodes := int(d.U32())
	// Untrusted count: each encoded tree node needs 21 bytes.
	if nNodes < 0 || nNodes > d.Remaining()/21 {
		return nil, fmt.Errorf("base: header claims %d tree nodes, %d bytes remain", nNodes, d.Remaining())
	}
	h.Tree = &kdtree.Tree{Nodes: make([]kdtree.Node, nNodes)}
	for i := 0; i < nNodes; i++ {
		h.Tree.Nodes[i] = kdtree.Node{
			Axis:   kdtree.Axis(d.U8()),
			Split:  d.F64(),
			Left:   int32(d.U32()),
			Right:  int32(d.U32()),
			Region: kdtree.RegionID(int32(d.U32())),
		}
	}
	nr := int(d.U32())
	if nr < 0 || nr > d.Remaining()/4 {
		return nil, fmt.Errorf("base: header claims %d regions, %d bytes remain", nr, d.Remaining())
	}
	h.RegionFirstPage = make([]uint32, nr)
	for i := range h.RegionFirstPage {
		h.RegionFirstPage[i] = d.U32()
	}
	h.ClusterPages = int(d.U16())
	h.LookupEntriesPerPage = int(d.U32())
	p, err := plan.Decode(d)
	if err != nil {
		return nil, err
	}
	h.Plan = p
	nParams := int(d.U16())
	for i := 0; i < nParams; i++ {
		kLen := int(d.U8())
		k := string(d.Raw(kLen))
		h.Params[k] = int64(d.U64())
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("base: header decode: %w", d.Err())
	}
	return h, nil
}
