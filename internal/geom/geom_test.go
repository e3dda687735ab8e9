package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := (Point{1, 1}).Dist(Point{1, 1}); d != 0 {
		t.Errorf("Dist to self = %v", d)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 5}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 2}, true},
		{Point{0, 0}, true},   // closed on min side
		{Point{10, 2}, false}, // open on max side
		{Point{5, 5}, false},  // open on max side
		{Point{-1, 2}, false}, // outside
		{Point{5, -0.1}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestUniverseContainsEverything(t *testing.T) {
	u := UniverseRect()
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		return u.Contains(Point{x, y})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitTilesThePlane(t *testing.T) {
	// After a split, every point is in exactly one half.
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	l, rr := r.SplitX(4)
	f := func(x, y float64) bool {
		p := Point{X: math.Mod(math.Abs(x), 10), Y: math.Mod(math.Abs(y), 10)}
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			return true
		}
		inL, inR := l.Contains(p), rr.Contains(p)
		return r.Contains(p) == (inL != inR) || !r.Contains(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	b, tp := r.SplitY(7)
	if !b.Contains(Point{5, 6.9}) || !tp.Contains(Point{5, 7}) {
		t.Error("SplitY boundary handling wrong")
	}
}

// TestRectGeometry: a split keeps the parent's other three sides and puts
// the cut line on both halves.
func TestRectGeometry(t *testing.T) {
	r := Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 10}
	l, rr := r.SplitX(3)
	if l != (Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 10}) || rr != (Rect{MinX: 3, MinY: 2, MaxX: 5, MaxY: 10}) {
		t.Errorf("SplitX(3) = %v, %v", l, rr)
	}
	b, tp := r.SplitY(6)
	if b != (Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 6}) || tp != (Rect{MinX: 1, MinY: 6, MaxX: 5, MaxY: 10}) {
		t.Errorf("SplitY(6) = %v, %v", b, tp)
	}
}

func TestSegCrossXFrac(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 10}
	frac, ok := SegCrossXFrac(p, q, 4)
	if !ok || math.Abs(frac-0.4) > 1e-12 {
		t.Errorf("frac = %v, %v", frac, ok)
	}
	if _, ok := SegCrossXFrac(p, q, 11); ok {
		t.Error("crossing outside segment accepted")
	}
	if _, ok := SegCrossXFrac(p, q, 0); ok {
		t.Error("endpoint-on-line should not count as crossing")
	}
	if _, ok := SegCrossXFrac(Point{5, 0}, Point{5, 10}, 5); ok {
		t.Error("vertical segment on the line should not cross")
	}
}

func TestSegCrossYFrac(t *testing.T) {
	frac, ok := SegCrossYFrac(Point{0, 0}, Point{10, 10}, 2.5)
	if !ok || math.Abs(frac-0.25) > 1e-12 {
		t.Errorf("frac = %v, %v", frac, ok)
	}
	if _, ok := SegCrossYFrac(Point{0, 3}, Point{10, 3}, 3); ok {
		t.Error("horizontal segment on the line should not cross")
	}
}

func TestCrossFracConsistentWithLerp(t *testing.T) {
	f := func(ax, ay, bx, by, c float64) bool {
		p := Point{math.Mod(ax, 100), math.Mod(ay, 100)}
		q := Point{math.Mod(bx, 100), math.Mod(by, 100)}
		line := math.Mod(c, 100)
		if anyNaN(p.X, p.Y, q.X, q.Y, line) {
			return true
		}
		frac, ok := SegCrossXFrac(p, q, line)
		if !ok {
			return true
		}
		at := Lerp(p, q, frac)
		return math.Abs(at.X-line) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	p, q := Point{0, 10}, Point{10, 20}
	if m := Lerp(p, q, 0.5); m.X != 5 || m.Y != 15 {
		t.Errorf("Lerp midpoint = %v", m)
	}
	if s := Lerp(p, q, 0); s != p {
		t.Errorf("Lerp(0) = %v", s)
	}
	if e := Lerp(p, q, 1); e != q {
		t.Errorf("Lerp(1) = %v", e)
	}
}

func anyNaN(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}
