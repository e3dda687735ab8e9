package base

import (
	"fmt"

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

// NodeSize returns the exact encoded size of node v's record; the KD-tree
// packers size pages against it.
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

// EncodeRegion serializes one region's page content: u16 node count followed
// by the node records.
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

// RegionAdj is one decoded half-edge.
type RegionAdj struct {
	To       graph.NodeID
	W        float64
	ToRegion kdtree.RegionID
	Flags    []byte
}

// RegionNode is one decoded node record.
type RegionNode struct {
	ID  graph.NodeID
	Pt  geom.Point
	LM  []float64
	Adj []RegionAdj
}

// DecodeRegion parses a region page encoded with the same dimensions
// (LandmarkDim, FlagBytes). Clients learn those from the header.
func DecodeRegion(data []byte, landmarkDim, flagBytes int) ([]RegionNode, error) {
	return decodeRegion(data, landmarkDim, flagBytes, false)
}

// DecodeRegionMode is DecodeRegion with an explicit compact-layout switch.
func DecodeRegionMode(data []byte, landmarkDim, flagBytes int, compact bool) ([]RegionNode, error) {
	return decodeRegion(data, landmarkDim, flagBytes, compact)
}

func decodeRegion(data []byte, landmarkDim, flagBytes int, compact bool) ([]RegionNode, error) {
	d := pagefile.NewDec(data)
	n := int(d.U16())
	// Untrusted count: even the smallest record needs ~20 bytes.
	if n > d.Remaining()/19+1 {
		return nil, fmt.Errorf("base: region page claims %d nodes, %d bytes remain", n, d.Remaining())
	}
	nodes := make([]RegionNode, 0, n)
	for i := 0; i < n; i++ {
		var rn RegionNode
		if compact {
			rn.ID = graph.NodeID(d.UVarint())
		} else {
			rn.ID = graph.NodeID(d.U32())
		}
		rn.Pt = geom.Point{X: d.F64(), Y: d.F64()}
		if landmarkDim > 0 {
			rn.LM = make([]float64, landmarkDim)
			for k := range rn.LM {
				rn.LM[k] = d.F64()
			}
		}
		var deg int
		if compact {
			deg = int(d.UVarint())
		} else {
			deg = int(d.U16())
		}
		if deg < 0 || deg > len(data) {
			return nil, fmt.Errorf("base: region page decode: implausible degree %d", deg)
		}
		rn.Adj = make([]RegionAdj, deg)
		for j := range rn.Adj {
			if compact {
				rn.Adj[j].To = graph.NodeID(int64(rn.ID) + d.Varint())
			} else {
				rn.Adj[j].To = graph.NodeID(d.U32())
			}
			rn.Adj[j].W = d.F64()
			rn.Adj[j].ToRegion = kdtree.RegionID(d.U16())
			if flagBytes > 0 {
				rn.Adj[j].Flags = append([]byte(nil), d.Raw(flagBytes)...)
			}
		}
		nodes = append(nodes, rn)
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("base: region page decode: %w", d.Err())
	}
	return nodes, nil
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

// DecodeRegionCluster reassembles a region spanning clusterPages pages and
// decodes it.
func DecodeRegionCluster(pages [][]byte, landmarkDim, flagBytes int) ([]RegionNode, error) {
	return DecodeRegionClusterMode(pages, landmarkDim, flagBytes, false)
}

// DecodeRegionClusterMode is DecodeRegionCluster with the compact switch.
func DecodeRegionClusterMode(pages [][]byte, landmarkDim, flagBytes int, compact bool) ([]RegionNode, error) {
	if len(pages) == 1 { // one-page regions (all but PI* and AF) decode in place
		return decodeRegion(pages[0], landmarkDim, flagBytes, compact)
	}
	var all []byte
	for _, p := range pages {
		all = append(all, p...)
	}
	return decodeRegion(all, landmarkDim, flagBytes, compact)
}
