package kdtree

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/graph"
)

// BuildPacked constructs the paper's packed KD-tree (§5.6) over the network
// g, where size gives each node's encoded record length and capacity is the
// byte capacity of one region (one page for CI/PI; clusterPages*pageCapacity
// for PI*).
//
// Mechanism, following §5.6: the node records, sorted along the split axis,
// form a byte stream. The root-type split is made at the (2^i·(B−z))-th byte
// for the smallest i that puts the split position at or past the middle byte
// (z = largest single record). The left child is then split into exactly 2^i
// leaves with near-middle byte splits, and the root-type rule recurses on
// the right child with the axes swapped. Every page except possibly the
// final remainder leaf is guaranteed to hold at least B−3z bytes (the paper
// states B−z; our variant loses two extra z to make the no-overflow argument
// airtight — see the cap() invariant below — and still achieves the >95%
// utilization the paper reports).
//
// The cuts assume coordinates distinct per axis, as generated networks
// have them. Where a cut falls between two nodes that share the split
// coordinate, Locate cannot tell them apart and the build fails, naming
// the node.
func BuildPacked(g *graph.Graph, size SizeFunc, capacity int) (*Partition, error) {
	b, items, err := newBuilder(g, size, capacity)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("kdtree: empty graph")
	}
	b.packRoot(items, AxisX, geom.UniverseRect())
	return b.finishLocated()
}

// cap returns the largest byte total that can always be split into 2^k
// leaves of at most `capacity` bytes each, given that consecutive prefix
// sums of the stream differ by at most z: cap(k) = 2^k*B - (2^k-1)*(z-1).
func (b *builder) cap(k int) int {
	return (1<<k)*b.capacity - ((1<<k)-1)*(b.maxRec-1)
}

// packRoot applies the root-type split of §5.6: carve a maximal
// power-of-two-leaf prefix off the stream, balance-split it, and recurse on
// the remainder with the axes swapped.
func (b *builder) packRoot(items []item, axis Axis, rect geom.Rect) int32 {
	total := totalSize(items)
	if total <= b.capacity {
		return b.addLeaf(items, rect)
	}
	sortByAxis(items, axis)

	// Smallest i whose split byte 2^i*(B-z) reaches the middle of the
	// stream; by construction (total > B) this position is always interior.
	unit := b.capacity - b.maxRec
	if unit <= 0 {
		unit = 1
	}
	i := 0
	for (1<<i)*unit*2 < total {
		i++
	}
	pos := (1 << i) * unit
	if pos >= total { // only possible via the unit<=0 clamp on degenerate inputs
		pos = total / 2
	}
	// The node owning the byte at the split position goes left (§5.6), but
	// never beyond what cap(i) can absorb.
	k := prefixEndingAtByte(items, pos)
	for k > 1 && cumSize(items, k) > b.cap(i) {
		k--
	}
	if k < 1 {
		k = 1
	}
	if k >= len(items) {
		k = len(items) - 1
	}

	split := splitCoord(items, k, axis)
	self := b.addInternal(axis, split)
	leftRect, rightRect := splitRect(rect, axis, split)
	left := b.packBalanced(items[:k:k], i, nextAxis(axis), leftRect)
	right := b.packRoot(items[k:], nextAxis(axis), rightRect)
	b.tree.Nodes[self].Left = left
	b.tree.Nodes[self].Right = right
	return self
}

// packBalanced splits items into exactly 2^k leaves with near-middle byte
// splits, choosing each split point as the prefix-sum boundary nearest the
// middle that keeps both halves within cap(k-1).
func (b *builder) packBalanced(items []item, k int, axis Axis, rect geom.Rect) int32 {
	if k == 0 || len(items) == 1 {
		return b.addLeaf(items, rect)
	}
	sortByAxis(items, axis)
	total := totalSize(items)
	childCap := b.cap(k - 1)

	// Feasible window for the left half's byte size.
	lo, hi := total-childCap, childCap
	if lo < 1 {
		lo = 1
	}
	cut := nearestBoundary(items, total/2, lo, hi)
	if cut < 1 {
		cut = 1
	}
	if cut >= len(items) {
		cut = len(items) - 1
	}
	split := splitCoord(items, cut, axis)
	self := b.addInternal(axis, split)
	leftRect, rightRect := splitRect(rect, axis, split)
	left := b.packBalanced(items[:cut:cut], k-1, nextAxis(axis), leftRect)
	right := b.packBalanced(items[cut:], k-1, nextAxis(axis), rightRect)
	b.tree.Nodes[self].Left = left
	b.tree.Nodes[self].Right = right
	return self
}

// prefixEndingAtByte returns the count of items whose records cover the
// byte at offset pos (0-based): the smallest k with cumSize(k) > pos.
func prefixEndingAtByte(items []item, pos int) int {
	c := 0
	for k, it := range items {
		c += it.size
		if c > pos {
			return k + 1
		}
	}
	return len(items)
}

// cumSize sums the first k record sizes.
func cumSize(items []item, k int) int {
	c := 0
	for _, it := range items[:k] {
		c += it.size
	}
	return c
}

// nearestBoundary returns the item count whose cumulative byte size is
// nearest target while staying within [lo, hi]. If no prefix sum falls in
// the window (possible only on degenerate inputs), it returns the count
// nearest the target unconstrained.
func nearestBoundary(items []item, target, lo, hi int) int {
	bestK, bestD := -1, 1<<62
	c := 0
	inWindowFound := false
	for k := 1; k < len(items); k++ {
		c += items[k-1].size
		d := c - target
		if d < 0 {
			d = -d
		}
		in := c >= lo && c <= hi
		switch {
		case in && !inWindowFound:
			inWindowFound = true
			bestK, bestD = k, d
		case in == inWindowFound && d < bestD:
			bestK, bestD = k, d
		}
	}
	if bestK < 0 {
		bestK = len(items) / 2
	}
	return bestK
}

func nextAxis(a Axis) Axis {
	if a == AxisX {
		return AxisY
	}
	return AxisX
}

func splitRect(r geom.Rect, axis Axis, c float64) (geom.Rect, geom.Rect) {
	if axis == AxisX {
		return r.SplitX(c)
	}
	return r.SplitY(c)
}
