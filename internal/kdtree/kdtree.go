// Package kdtree implements the network partitioning of §5.1 and §5.6:
// KD-trees superimposed on the road network in Euclidean space, whose leaves
// are the regions every scheme is built on.
//
// Two constructions are provided:
//
//   - Packed (§5.6): an unbalanced KD-tree over the byte-stream of node
//     records that guarantees every region data page (but possibly the last)
//     wastes at most z bytes, where z is the largest single node record.
//     This is the paper's novel tree-packing mechanism, achieving >95% page
//     utilization.
//   - Plain (§5.1): the textbook median split, recursing until a leaf's node
//     records fit in a page. Used for the CI-P / PI-P ablations (Fig. 8),
//     where utilization can drop towards 50%.
//
// The tree structure is representable concisely — one (axis, coordinate)
// pair per internal node — and ships to clients inside the header file.
package kdtree

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
)

// RegionID identifies a leaf of the partition tree. Dense in 0..NumRegions-1,
// assigned left-to-right.
type RegionID int32

// NoRegion is the sentinel for "not a region".
const NoRegion RegionID = -1

// Axis selects the splitting dimension of an internal tree node.
type Axis uint8

const (
	AxisX Axis = 0
	AxisY Axis = 1
)

// Node is one node of the partition tree. Leaves carry a RegionID; internal
// nodes carry a split axis and coordinate. Children are indexes into
// Tree.Nodes (-1 for none).
type Node struct {
	Axis        Axis
	Split       float64
	Left, Right int32
	Region      RegionID // valid iff Left == -1
}

// IsLeaf reports whether n is a leaf.
func (n Node) IsLeaf() bool { return n.Left < 0 }

// Tree is the KD partition tree. Node 0 is the root.
type Tree struct {
	Nodes []Node
}

// Partition is the complete result of partitioning a network: the tree, the
// per-node region assignment and per-region node lists, and the region
// bounding rectangles (for diagnostics and border-node placement).
type Partition struct {
	Tree       *Tree
	NumRegions int
	RegionOf   []RegionID       // indexed by graph.NodeID
	Members    [][]graph.NodeID // indexed by RegionID
	Rects      []geom.Rect      // indexed by RegionID
}

// Locate maps a point to the region whose leaf cell contains it. Points left
// of a split (coordinate < split) descend left.
func (t *Tree) Locate(p geom.Point) RegionID {
	i := int32(0)
	for {
		n := t.Nodes[i]
		if n.IsLeaf() {
			return n.Region
		}
		c := p.X
		if n.Axis == AxisY {
			c = p.Y
		}
		if c < n.Split {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// NumLeaves counts the regions.
func (t *Tree) NumLeaves() int {
	count := 0
	for _, n := range t.Nodes {
		if n.IsLeaf() {
			count++
		}
	}
	return count
}

// SizeFunc returns the encoded byte size of a node's record in the region
// data file (identifier + coordinates + adjacency list, and for LM the
// landmark vector). Page packing is computed against these sizes.
type SizeFunc func(graph.NodeID) int

// builder accumulates tree nodes and region assignments.
type builder struct {
	g        *graph.Graph
	size     SizeFunc
	tree     *Tree
	members  [][]graph.NodeID
	rects    []geom.Rect
	capacity int
	maxRec   int // z: the largest single record
}

// item is a node together with its cached coordinates and record size.
type item struct {
	id   graph.NodeID
	x, y float64
	size int
}

func newBuilder(g *graph.Graph, size SizeFunc, capacity int) (*builder, []item, error) {
	b := &builder{g: g, size: size, tree: &Tree{}, capacity: capacity}
	items := make([]item, g.NumNodes())
	for i := range items {
		id := graph.NodeID(i)
		p := g.Point(id)
		sz := size(id)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("kdtree: node %d has non-positive record size %d", i, sz)
		}
		if sz > b.maxRec {
			b.maxRec = sz
		}
		items[i] = item{id: id, x: p.X, y: p.Y, size: sz}
	}
	if b.maxRec > capacity {
		return nil, nil, fmt.Errorf("kdtree: largest record (%d bytes) exceeds page capacity %d", b.maxRec, capacity)
	}
	return b, items, nil
}

func (b *builder) addLeaf(items []item, rect geom.Rect) int32 {
	region := RegionID(len(b.members))
	nodes := make([]graph.NodeID, len(items))
	for i, it := range items {
		nodes[i] = it.id
	}
	b.members = append(b.members, nodes)
	b.rects = append(b.rects, rect)
	b.tree.Nodes = append(b.tree.Nodes, Node{Left: -1, Right: -1, Region: region})
	return int32(len(b.tree.Nodes) - 1)
}

func (b *builder) addInternal(axis Axis, split float64) int32 {
	b.tree.Nodes = append(b.tree.Nodes, Node{Axis: axis, Split: split, Left: -1, Right: -1, Region: NoRegion})
	return int32(len(b.tree.Nodes) - 1)
}

func (b *builder) finish() *Partition {
	p := &Partition{
		Tree:       b.tree,
		NumRegions: len(b.members),
		Members:    b.members,
		Rects:      b.rects,
		RegionOf:   make([]RegionID, b.g.NumNodes()),
	}
	for r, nodes := range b.members {
		for _, v := range nodes {
			p.RegionOf[v] = RegionID(r)
		}
	}
	return p
}

func totalSize(items []item) int {
	t := 0
	for _, it := range items {
		t += it.size
	}
	return t
}

// sortByAxis orders items ascending by the axis coordinate. BuildPacked
// and BuildPlain cut the sorted order at an index, which strictly separates
// the halves only where the coordinates at the cut differ; finishLocated
// refuses a partition where they tied. BuildFixedRegions moves its cuts off
// ties.
func sortByAxis(items []item, axis Axis) {
	if axis == AxisX {
		slices.SortFunc(items, func(a, c item) int { return cmp.Compare(a.x, c.x) })
	} else {
		slices.SortFunc(items, func(a, c item) int { return cmp.Compare(a.y, c.y) })
	}
}

// finishLocated is finish for BuildPacked and BuildPlain, which may cut
// between two nodes that tie on the split axis: the split coordinate is
// then their shared one, and Locate sends both to the right. A partition
// like that would snap a query endpoint on the left node into the wrong
// region, so the build fails instead, naming the first such node.
func (b *builder) finishLocated() (*Partition, error) {
	p := b.finish()
	for v, r := range p.RegionOf {
		pt := b.g.Point(graph.NodeID(v))
		if got := p.Tree.Locate(pt); got != r {
			return nil, fmt.Errorf("kdtree: node %d at (%g, %g) is assigned region %d but located in region %d: "+
				"a split cuts between nodes that share its coordinate", v, pt.X, pt.Y, r, got)
		}
	}
	return p, nil
}

// splitCoord returns the boundary coordinate between items[k-1] and items[k]
// on the given axis: the midpoint of the two adjacent (distinct) values, so
// the point→region lookup is exact.
func splitCoord(items []item, k int, axis Axis) float64 {
	var lo, hi float64
	if axis == AxisX {
		lo, hi = items[k-1].x, items[k].x
	} else {
		lo, hi = items[k-1].y, items[k].y
	}
	return lo + (hi-lo)/2
}
