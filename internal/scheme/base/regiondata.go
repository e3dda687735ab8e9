package base

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/pagefile"
)

// RegionCodec encodes and decodes region-data pages (F_d). A region page
// stores, for every node of the region: identifier, coordinates, the
// optional Landmark vector (LM baseline), and the adjacency list — each
// half-edge carrying the neighbour id, the edge weight, the neighbour's
// region (so incremental searches know which page to fetch next), and the
// optional Arc-flag bit-vector (AF baseline).
type RegionCodec struct {
	G    *graph.Graph
	Part *kdtree.Partition
	// Landmarks[v] is the LM vector to store with node v (nil = none).
	Landmarks [][]float64
	// LandmarkDim must equal len(Landmarks[v]) when Landmarks is set.
	LandmarkDim int
	// FlagBytes > 0 stores an Arc-flag bit-vector of that many bytes per
	// half-edge, supplied by EdgeFlags.
	FlagBytes int
	// EdgeFlags returns the flag bytes for the adjIdx-th half-edge of from.
	EdgeFlags func(from graph.NodeID, adjIdx int) []byte
	// Compact switches to the losslessly compressed record layout — the
	// paper's §8 future-work direction of compressing the network data
	// itself. Node and neighbour identifiers, degrees, and region hints
	// become varints (neighbours relative to the node's own id, which is
	// small on spatially coherent networks); coordinates and weights stay
	// exact float64s. The client learns the mode from the header.
	Compact bool
}

// CompactParam is the header's ParamCompact for the layout c writes: 1
// for the compact one, 0 for the plain.
func (c *RegionCodec) CompactParam() int64 {
	if c.Compact {
		return 1
	}
	return 0
}

// regionHeaderBytes is the u16 node count EncodeRegion writes before a
// region's records.
const regionHeaderBytes = 2

// Capacity is the record bytes a region may hold in a cluster of
// clusterBytes: the cluster net of the region header. The KD-tree packers
// size regions against it, with NodeSize, so every region EncodeRegion
// writes fits its cluster.
func (c *RegionCodec) Capacity(clusterBytes int) int {
	return clusterBytes - regionHeaderBytes
}

// NodeSize returns the exact encoded size of node v's record; the KD-tree
// packers size regions against it (see Capacity).
func (c *RegionCodec) NodeSize(v graph.NodeID) int {
	if !c.Compact {
		return 4 + 8 + 8 + 2 + 8*c.LandmarkDim + c.G.Degree(v)*(4+8+2+c.FlagBytes)
	}
	// Compact layout: varint id and degree, neighbours as varint deltas
	// from the node's own id; the region hint stays a fixed u16 because
	// the partition does not exist yet when the packers call NodeSize.
	n := pagefile.UVarintLen(uint64(v)) + 16 + 8*c.LandmarkDim
	adj := c.G.Adj(v)
	n += pagefile.UVarintLen(uint64(len(adj)))
	for _, he := range adj {
		n += pagefile.VarintLen(int64(he.To)-int64(v)) + 8 + 2 + c.FlagBytes
	}
	return n
}

// SizeFunc adapts NodeSize for the kdtree builders.
func (c *RegionCodec) SizeFunc() kdtree.SizeFunc {
	return func(v graph.NodeID) int { return c.NodeSize(v) }
}

// EncodeRegion serializes one region's page content: the u16 node count
// (regionHeaderBytes) followed by the node records.
func (c *RegionCodec) EncodeRegion(r kdtree.RegionID) []byte {
	nodes := c.Part.Members[r]
	e := pagefile.NewEnc(64 * len(nodes))
	e.U16(uint16(len(nodes)))
	for _, v := range nodes {
		pt := c.G.Point(v)
		if c.Compact {
			e.UVarint(uint64(v))
		} else {
			e.U32(uint32(v))
		}
		e.F64(pt.X)
		e.F64(pt.Y)
		if c.LandmarkDim > 0 {
			for _, d := range c.Landmarks[v] {
				e.F64(d)
			}
		}
		adj := c.G.Adj(v)
		if c.Compact {
			e.UVarint(uint64(len(adj)))
		} else {
			e.U16(uint16(len(adj)))
		}
		for i, he := range adj {
			if c.Compact {
				e.Varint(int64(he.To) - int64(v))
			} else {
				e.U32(uint32(he.To))
			}
			e.F64(he.W)
			e.U16(uint16(c.Part.RegionOf[he.To]))
			if c.FlagBytes > 0 {
				fb := c.EdgeFlags(v, i)
				if len(fb) != c.FlagBytes {
					panic(fmt.Sprintf("base: edge flags %d bytes, want %d", len(fb), c.FlagBytes))
				}
				e.Raw(fb)
			}
		}
	}
	return e.Bytes()
}

// regionLayout is how a database lays out its region records; the client
// reads it off the header.
type regionLayout struct {
	lmDim, flagBytes int
	compact          bool
}

// regionLayout reads the region-record layout off the header: LM stores
// landmark vectors, AF flag bit-vectors, and the compact switch is a
// parameter of its own.
func (h *Header) regionLayout() regionLayout {
	return regionLayout{
		lmDim:     int(h.Params[ParamLMDim]),
		flagBytes: int(h.Params[ParamFlagBy]),
		compact:   h.Params[ParamCompact] == 1,
	}
}

// regionPages returns the page numbers of region r's cluster, in buf.
func (h *Header) regionPages(r kdtree.RegionID, buf []int) ([]int, error) {
	if r < 0 || int(r) >= len(h.RegionFirstPage) {
		return nil, fmt.Errorf("base: region %d out of range", r)
	}
	buf = buf[:0]
	for i := 0; i < h.ClusterPages; i++ {
		buf = append(buf, int(h.RegionFirstPage[r])+i)
	}
	return buf, nil
}

// minRecord is the size of the smallest node record: a degree-0 node with,
// in the compact layout, a one-byte id.
func (l regionLayout) minRecord() int {
	if l.compact {
		return 1 + 16 + 1 + 8*l.lmDim
	}
	return 4 + 16 + 2 + 8*l.lmDim
}

// minEdge is the size of the smallest half-edge: in the compact layout, one
// whose neighbour is within a one-byte varint delta.
func (l regionLayout) minEdge() int {
	if l.compact {
		return 1 + 8 + 2 + l.flagBytes
	}
	return 4 + 8 + 2 + l.flagBytes
}

// regionSink receives a region page's records as decodeRegion parses them:
// record opens node id's record, edge adds a half-edge out of the open
// record. lm (the landmark vector, little-endian float64s) and flags view
// the page and must be copied if kept. The query path's sink is the
// *ClientGraph; the tests collect RegionNodes through the same decoder.
type regionSink interface {
	record(id graph.NodeID, pt geom.Point, lm []byte) error
	edge(to graph.NodeID, w float64, toRegion kdtree.RegionID, flags []byte) error
}

// decodeRegion parses a region page — u16 node count, then the records —
// into sink. A page shorter than its node count is an error. Counts are
// untrusted: a node count or degree the remaining bytes cannot hold at the
// layout's smallest record or half-edge is an error before anything is
// handed on, so no claimed count sizes anything.
//
// Bounds are checked per record, not per field: a plain record's fixed part
// (id, point, landmark vector, degree) is checked once, and the degree
// check already proves its whole adjacency list present, since every plain
// half-edge has the same width; the fields are then read by slice index.
// The compact layout's varints are bounds-checked as they are read, and
// each half-edge's fixed tail (weight, region hint, flags) once after its
// varint.
func decodeRegion(data []byte, l regionLayout, sink regionSink) error {
	if l.lmDim < 0 || l.flagBytes < 0 || l.lmDim > math.MaxUint16 || l.flagBytes > math.MaxUint16 {
		return fmt.Errorf("base: region layout with %d landmarks and %d flag bytes", l.lmDim, l.flagBytes)
	}
	if len(data) < regionHeaderBytes {
		// Every region cluster is at least one page, so a page too short
		// for its node count is a truncated one, not an empty region.
		return fmt.Errorf("base: region page of %d bytes holds no node count", len(data))
	}
	n := int(binary.LittleEndian.Uint16(data))
	off := regionHeaderBytes
	if n > (len(data)-off)/l.minRecord() {
		return fmt.Errorf("base: region page claims %d nodes, %d bytes remain", n, len(data)-off)
	}
	lmBytes := 8 * l.lmDim
	// edgeTail is a half-edge past its neighbour id: weight, region hint and
	// flags. A plain half-edge is a u32 id and its tail, exactly minEdge
	// bytes, so the degree check proves a plain adjacency list present.
	edgeTail := 8 + 2 + l.flagBytes
	for i := 0; i < n; i++ {
		var id int64
		var deg int
		if l.compact {
			v, k := binary.Uvarint(data[off:])
			if k <= 0 || len(data)-off-k < 16+lmBytes {
				return regionOverrun(off, len(data))
			}
			id, off = int64(min(v, math.MaxInt32+1)), off+k
		} else {
			if len(data)-off < 4+16+lmBytes+2 {
				return regionOverrun(off, len(data))
			}
			id, off = int64(binary.LittleEndian.Uint32(data[off:])), off+4
		}
		pt := geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(data[off:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:])),
		}
		lm := data[off+16 : off+16+lmBytes]
		off += 16 + lmBytes
		if l.compact {
			v, k := binary.Uvarint(data[off:])
			if k <= 0 {
				return regionOverrun(off, len(data))
			}
			deg, off = int(min(v, math.MaxInt32)), off+k
		} else {
			deg, off = int(binary.LittleEndian.Uint16(data[off:])), off+2
		}
		if deg > (len(data)-off)/l.minEdge() {
			return fmt.Errorf("base: region page decode: implausible degree %d", deg)
		}
		if id > math.MaxInt32 {
			return fmt.Errorf("base: region page decode: node id %d out of range", id)
		}
		if err := sink.record(graph.NodeID(id), pt, lm); err != nil {
			return err
		}
		for j := 0; j < deg; j++ {
			var to int64
			if l.compact {
				v, k := binary.Varint(data[off:])
				if k <= 0 || len(data)-off-k < edgeTail {
					return regionOverrun(off, len(data))
				}
				to, off = id+v, off+k
			} else {
				to, off = int64(binary.LittleEndian.Uint32(data[off:])), off+4
			}
			w := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			toRegion := kdtree.RegionID(binary.LittleEndian.Uint16(data[off+8:]))
			flags := data[off+10 : off+edgeTail]
			off += edgeTail
			if to < 0 || to > math.MaxInt32 {
				return fmt.Errorf("base: region page decode: neighbour id %d out of range", to)
			}
			if err := sink.edge(graph.NodeID(to), w, toRegion, flags); err != nil {
				return err
			}
		}
	}
	return nil
}

// regionOverrun is decodeRegion's error for a record cut short: the field at
// off reaches past the page's size bytes.
func regionOverrun(off, size int) error {
	return fmt.Errorf("base: region page decode: record overruns the page at offset %d of %d", off, size)
}

// BuildRegionData writes one region per ClusterPages pages into a file,
// returning the first page of each region. Each region's encoding must fit
// in clusterPages*pageSize bytes (guaranteed when the partition was built
// with that capacity against the codec's SizeFunc).
func BuildRegionData(file *pagefile.File, codec *RegionCodec, clusterPages int) ([]uint32, error) {
	firstPage := make([]uint32, codec.Part.NumRegions)
	ps := file.PageSize()
	for r := 0; r < codec.Part.NumRegions; r++ {
		data := codec.EncodeRegion(kdtree.RegionID(r))
		if len(data) > clusterPages*ps {
			return nil, fmt.Errorf("base: region %d encodes to %d bytes > %d-page cluster", r, len(data), clusterPages)
		}
		firstPage[r] = uint32(file.NumPages())
		for p := 0; p < clusterPages; p++ {
			start := p * ps
			var chunk []byte
			if start < len(data) {
				end := start + ps
				if end > len(data) {
					end = len(data)
				}
				chunk = data[start:end]
			}
			if _, err := file.AppendPage(chunk); err != nil {
				return nil, err
			}
		}
	}
	return firstPage, nil
}
