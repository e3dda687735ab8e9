package base

import (
	"bytes"
	"encoding/binary"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
)

// RegionAdj is one decoded half-edge, as the tests and the reference graph
// take region pages.
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

// regionNodes is a regionSink that collects the records as RegionNodes.
type regionNodes []RegionNode

func (rs *regionNodes) record(id graph.NodeID, pt geom.Point, lm []byte) error {
	rn := RegionNode{ID: id, Pt: pt, Adj: []RegionAdj{}}
	if len(lm) > 0 {
		rn.LM = make([]float64, len(lm)/8)
		for k := range rn.LM {
			rn.LM[k] = math.Float64frombits(binary.LittleEndian.Uint64(lm[8*k:]))
		}
	}
	*rs = append(*rs, rn)
	return nil
}

func (rs *regionNodes) edge(to graph.NodeID, w float64, toRegion kdtree.RegionID, flags []byte) error {
	a := RegionAdj{To: to, W: w, ToRegion: toRegion}
	if len(flags) > 0 {
		a.Flags = bytes.Clone(flags)
	}
	rn := &(*rs)[len(*rs)-1]
	rn.Adj = append(rn.Adj, a)
	return nil
}

// DecodeRegion parses a plain-layout region page with the production
// decoder into RegionNodes.
func DecodeRegion(data []byte, landmarkDim, flagBytes int) ([]RegionNode, error) {
	return DecodeRegionMode(data, landmarkDim, flagBytes, false)
}

// DecodeRegionMode is DecodeRegion with an explicit compact-layout switch.
func DecodeRegionMode(data []byte, landmarkDim, flagBytes int, compact bool) ([]RegionNode, error) {
	var rs regionNodes
	if err := decodeRegion(data, regionLayout{lmDim: landmarkDim, flagBytes: flagBytes, compact: compact}, &rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// AddRegionNodes merges decoded records into cg through the sink the region
// decoder feeds, as if their page had been fetched.
func (cg *ClientGraph) AddRegionNodes(nodes []RegionNode) {
	for _, rn := range nodes {
		var lm []byte
		for _, d := range rn.LM {
			lm = binary.LittleEndian.AppendUint64(lm, math.Float64bits(d))
		}
		if err := cg.record(rn.ID, rn.Pt, lm); err != nil {
			panic(err)
		}
		for _, a := range rn.Adj {
			if err := cg.edge(a.To, a.W, a.ToRegion, a.Flags); err != nil {
				panic(err)
			}
		}
	}
}
