package kdtree

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/graph"
)

// BuildPlain constructs the textbook KD-tree of §5.1: split at the median
// node, alternating axes, until every leaf's records fit in capacity bytes.
// This is the partitioning behind the CI-P and PI-P ablations of Figure 8;
// utilization can drop to ~50% because a leaf just over capacity splits into
// two half-full leaves. Like BuildPacked, it fails where a median cut falls
// between two nodes that share the split coordinate.
func BuildPlain(g *graph.Graph, size SizeFunc, capacity int) (*Partition, error) {
	b, items, err := newBuilder(g, size, capacity)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("kdtree: empty graph")
	}
	b.plainRec(items, AxisX, geom.UniverseRect())
	return b.finishLocated()
}

func (b *builder) plainRec(items []item, axis Axis, rect geom.Rect) int32 {
	if totalSize(items) <= b.capacity || len(items) == 1 {
		return b.addLeaf(items, rect)
	}
	sortByAxis(items, axis)
	k := len(items) / 2
	split := splitCoord(items, k, axis)
	self := b.addInternal(axis, split)
	leftRect, rightRect := splitRect(rect, axis, split)
	left := b.plainRec(items[:k:k], nextAxis(axis), leftRect)
	right := b.plainRec(items[k:], nextAxis(axis), rightRect)
	b.tree.Nodes[self].Left = left
	b.tree.Nodes[self].Right = right
	return self
}

// BuildFixedRegions partitions g into `regions` leaves of roughly equal
// byte size, alternating axes. The Arc-flag baseline (§4) uses this: AF
// keeps one flag bit per region with every edge, so the region count is a
// tuning parameter rather than a page-capacity consequence. Nodes that share
// a point cannot be told apart by any split, so a group of such duplicates
// ends as one leaf, and the partition has fewer regions.
func BuildFixedRegions(g *graph.Graph, size SizeFunc, regions int) (*Partition, error) {
	if regions < 1 {
		return nil, fmt.Errorf("kdtree: region count %d < 1", regions)
	}
	b, items, err := newBuilder(g, size, 1<<62)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("kdtree: empty graph")
	}
	b.fixedRec(items, regions, AxisX, geom.UniverseRect())
	return b.finish(), nil
}

func (b *builder) fixedRec(items []item, regions int, axis Axis, rect geom.Rect) int32 {
	if regions <= 1 || len(items) == 1 {
		return b.addLeaf(items, rect)
	}
	// Split on this axis, or on the other one where every coordinate on
	// this one ties; points that tie on both are duplicates, one leaf.
	k := 0
	for range 2 {
		sortByAxis(items, axis)
		if k = fixedCut(items, regions, axis); k > 0 {
			break
		}
		axis = nextAxis(axis)
	}
	if k == 0 {
		return b.addLeaf(items, rect)
	}
	leftRegions := regions / 2
	split := splitCoord(items, k, axis)
	self := b.addInternal(axis, split)
	leftRect, rightRect := splitRect(rect, axis, split)
	left := b.fixedRec(items[:k:k], leftRegions, nextAxis(axis), leftRect)
	right := b.fixedRec(items[k:], regions-leftRegions, nextAxis(axis), rightRect)
	b.tree.Nodes[self].Left = left
	b.tree.Nodes[self].Right = right
	return self
}

// fixedCut returns where items, sorted on axis, split for fixedRec: after
// the byte share of the left half's regions, moved to the nearest cut
// whose two sides differ on axis, so that the split coordinate strictly
// separates them and Locate sends every item to its own side. It returns
// 0 when every coordinate on axis ties.
func fixedCut(items []item, regions int, axis Axis) int {
	// Split bytes proportionally to the region counts on each side.
	k := prefixEndingAtByte(items, totalSize(items)*(regions/2)/regions)
	k = min(max(k, 1), len(items)-1)
	coord := func(i int) float64 {
		if axis == AxisX {
			return items[i].x
		}
		return items[i].y
	}
	for d := 0; k-d >= 1 || k+d < len(items); d++ {
		if i := k - d; i >= 1 && coord(i-1) != coord(i) {
			return i
		}
		if i := k + d; i < len(items) && coord(i-1) != coord(i) {
			return i
		}
	}
	return 0
}

// Utilization returns per-region byte totals and the overall utilization
// fraction given the per-region capacity. This backs Figure 8(a).
func Utilization(p *Partition, size SizeFunc, capacity int) (perRegion []int, overall float64) {
	perRegion = make([]int, p.NumRegions)
	total := 0
	for r, nodes := range p.Members {
		for _, v := range nodes {
			perRegion[r] += size(v)
		}
		total += perRegion[r]
	}
	if p.NumRegions == 0 {
		return perRegion, 0
	}
	return perRegion, float64(total) / float64(capacity*p.NumRegions)
}

// Validate checks structural invariants of a partition against its graph:
// every node is in exactly one region, Locate agrees with RegionOf, and no
// region exceeds capacity. The partition tests use it as their oracle.
func Validate(p *Partition, g *graph.Graph, size SizeFunc, capacity int) error {
	if len(p.RegionOf) != g.NumNodes() {
		return fmt.Errorf("kdtree: RegionOf covers %d of %d nodes", len(p.RegionOf), g.NumNodes())
	}
	seen := make([]bool, g.NumNodes())
	for r, nodes := range p.Members {
		bytes := 0
		for _, v := range nodes {
			if seen[v] {
				return fmt.Errorf("kdtree: node %d in multiple regions", v)
			}
			seen[v] = true
			if p.RegionOf[v] != RegionID(r) {
				return fmt.Errorf("kdtree: node %d RegionOf=%d but member of %d", v, p.RegionOf[v], r)
			}
			if got := p.Tree.Locate(g.Point(v)); got != RegionID(r) {
				return fmt.Errorf("kdtree: node %d located in region %d but assigned %d", v, got, r)
			}
			bytes += size(v)
		}
		if bytes > capacity {
			return fmt.Errorf("kdtree: region %d holds %d bytes > capacity %d", r, bytes, capacity)
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("kdtree: node %d not in any region", v)
		}
	}
	if got := p.Tree.NumLeaves(); got != p.NumRegions {
		return fmt.Errorf("kdtree: tree has %d leaves, partition %d regions", got, p.NumRegions)
	}
	return nil
}
