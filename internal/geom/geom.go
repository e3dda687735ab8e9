// Package geom provides the small amount of planar geometry used by the
// road-network partitioning and border-node machinery: points, axis-aligned
// rectangles, and segment/line intersections against vertical or horizontal
// split lines.
package geom

import "math"

// Point is a location in the Euclidean plane. Road-network nodes, query
// sources and query destinations are all expressed as Points (§3.1 of the
// paper assumes all nodes have Euclidean coordinates).
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Rect is a closed axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// UniverseRect covers every representable point. KD-tree roots start here.
func UniverseRect() Rect {
	inf := math.Inf(1)
	return Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
}

// Contains reports whether p lies inside r (closed on the min side, open on
// the max side, so that adjacent KD-tree regions tile the plane without
// overlap).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// SplitX cuts r at the vertical line x=c and returns the left and right
// parts. c must lie within the rectangle for the result to be meaningful.
func (r Rect) SplitX(c float64) (left, right Rect) {
	left, right = r, r
	left.MaxX = c
	right.MinX = c
	return left, right
}

// SplitY cuts r at the horizontal line y=c and returns the bottom and top
// parts.
func (r Rect) SplitY(c float64) (bottom, top Rect) {
	bottom, top = r, r
	bottom.MaxY = c
	top.MinY = c
	return bottom, top
}

// SegCrossXFrac returns the fraction t in (0,1) at which the segment p→q
// crosses the vertical line x=c, and whether it crosses at all. Endpoints
// exactly on the line do not count as crossings.
func SegCrossXFrac(p, q Point, c float64) (float64, bool) {
	if (p.X < c) == (q.X < c) {
		return 0, false
	}
	if p.X == q.X {
		return 0, false
	}
	t := (c - p.X) / (q.X - p.X)
	if t <= 0 || t >= 1 {
		return 0, false
	}
	return t, true
}

// SegCrossYFrac is SegCrossXFrac for the horizontal line y=c.
func SegCrossYFrac(p, q Point, c float64) (float64, bool) {
	if (p.Y < c) == (q.Y < c) {
		return 0, false
	}
	if p.Y == q.Y {
		return 0, false
	}
	t := (c - p.Y) / (q.Y - p.Y)
	if t <= 0 || t >= 1 {
		return 0, false
	}
	return t, true
}

// Lerp returns the point a fraction t of the way from p to q.
func Lerp(p, q Point, t float64) Point {
	return Point{X: p.X + t*(q.X-p.X), Y: p.Y + t*(q.Y-p.Y)}
}
