package kdtree

import (
	"math/rand"
	"regexp"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
)

// uniformSize pretends every node record is n bytes.
func uniformSize(n int) SizeFunc {
	return func(graph.NodeID) int { return n }
}

// adjacencySize mimics the real region-data record: a fixed header plus a
// per-neighbour cost, so sizes vary node to node.
func adjacencySize(g *graph.Graph) SizeFunc {
	return func(v graph.NodeID) int { return 24 + 10*g.Degree(v) }
}

func testNetwork(t *testing.T, scale float64) *graph.Graph {
	t.Helper()
	return gen.GeneratePreset(gen.Oldenburg, scale)
}

func TestPackedValid(t *testing.T) {
	g := testNetwork(t, 0.15)
	size := adjacencySize(g)
	const capacity = 1024
	p, err := BuildPacked(g, size, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, g, size, capacity); err != nil {
		t.Fatal(err)
	}
	if p.NumRegions < 2 {
		t.Fatalf("expected multiple regions, got %d", p.NumRegions)
	}
}

func TestPackedUtilizationAbove95(t *testing.T) {
	g := testNetwork(t, 0.3)
	size := adjacencySize(g)
	const capacity = 4096
	p, err := BuildPacked(g, size, capacity)
	if err != nil {
		t.Fatal(err)
	}
	perRegion, overall := Utilization(p, size, capacity)
	if overall < 0.95 {
		t.Errorf("overall utilization %.3f, paper reports > 0.95", overall)
	}
	// Every page but possibly the final remainder leaf must be well filled.
	z := 0
	for v := 0; v < g.NumNodes(); v++ {
		if s := size(graph.NodeID(v)); s > z {
			z = s
		}
	}
	low := 0
	for _, b := range perRegion {
		if b < capacity-3*z {
			low++
		}
	}
	if low > 1 {
		t.Errorf("%d regions below the B-3z floor (only the remainder leaf may be)", low)
	}
}

func TestPlainValidAndLessUtilized(t *testing.T) {
	g := testNetwork(t, 0.3)
	size := adjacencySize(g)
	const capacity = 4096
	packed, err := BuildPacked(g, size, capacity)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildPlain(g, size, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(plain, g, size, capacity); err != nil {
		t.Fatal(err)
	}
	_, uPacked := Utilization(packed, size, capacity)
	_, uPlain := Utilization(plain, size, capacity)
	if uPlain >= uPacked {
		t.Errorf("plain utilization %.3f >= packed %.3f; packing should win", uPlain, uPacked)
	}
	if plain.NumRegions <= packed.NumRegions {
		t.Errorf("plain produced %d regions <= packed %d; plain should need more", plain.NumRegions, packed.NumRegions)
	}
}

func TestPackedRespectsCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.NewUndirected()
		n := 10 + rng.Intn(300)
		for i := 0; i < n; i++ {
			g.AddNode(geom.Point{X: rng.Float64(), Y: rng.Float64()})
		}
		for i := 1; i < n; i++ {
			g.MustAddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), 0.1+rng.Float64())
		}
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 8 + rng.Intn(60)
		}
		size := func(v graph.NodeID) int { return sizes[v] }
		capacity := 128 + rng.Intn(512)
		p, err := BuildPacked(g, size, capacity)
		if err != nil {
			return false
		}
		return Validate(p, g, size, capacity) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	// Note: generator coordinates here are random floats; duplicates are
	// possible but astronomically unlikely, matching the production setup.
}

func TestLocateArbitraryPoints(t *testing.T) {
	g := testNetwork(t, 0.1)
	size := adjacencySize(g)
	p, err := BuildPacked(g, size, 2048)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		pt := geom.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		r := p.Tree.Locate(pt)
		if r < 0 || int(r) >= p.NumRegions {
			t.Fatalf("Locate(%v) = %d out of range", pt, r)
		}
	}
}

func TestSingleRegionWhenEverythingFits(t *testing.T) {
	g := graph.NewUndirected()
	for i := 0; i < 5; i++ {
		g.AddNode(geom.Point{X: float64(i), Y: float64(i % 2)})
	}
	for i := 0; i < 4; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	p, err := BuildPacked(g, uniformSize(10), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRegions != 1 {
		t.Errorf("NumRegions = %d, want 1", p.NumRegions)
	}
}

func TestRecordLargerThanPageRejected(t *testing.T) {
	g := graph.NewUndirected()
	g.AddNode(geom.Point{})
	g.AddNode(geom.Point{X: 1})
	g.MustAddEdge(0, 1, 1)
	if _, err := BuildPacked(g, uniformSize(5000), 4096); err == nil {
		t.Error("oversized record accepted")
	}
	if _, err := BuildPlain(g, uniformSize(5000), 4096); err == nil {
		t.Error("plain: oversized record accepted")
	}
}

func TestBuildFixedRegions(t *testing.T) {
	g := testNetwork(t, 0.1)
	size := adjacencySize(g)
	for _, want := range []int{1, 2, 8, 17} {
		p, err := BuildFixedRegions(g, size, want)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumRegions != want {
			t.Errorf("regions = %d, want %d", p.NumRegions, want)
		}
		if err := Validate(p, g, size, 1<<62); err != nil {
			t.Fatal(err)
		}
		// Region byte sizes should be roughly balanced.
		per, _ := Utilization(p, size, 1)
		lo, hi := per[0], per[0]
		for _, b := range per {
			if b < lo {
				lo = b
			}
			if b > hi {
				hi = b
			}
		}
		if want > 1 && float64(hi) > 3*float64(lo) {
			t.Errorf("fixed regions unbalanced: min %d max %d bytes", lo, hi)
		}
	}
	if _, err := BuildFixedRegions(g, size, 0); err == nil {
		t.Error("zero regions accepted")
	}
}

// TestBuildFixedRegionsTiedCoordinates: nodes that tie on a split axis are
// never cut apart on it — the cut moves to where the coordinates differ, or
// to the other axis — so Locate finds every node in its own region. Nodes
// on one point end as one leaf.
func TestBuildFixedRegionsTiedCoordinates(t *testing.T) {
	for _, tc := range []struct {
		name    string
		points  []geom.Point
		regions int
		want    int
	}{
		{"a line", []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}, 8, 3},
		{"a column", []geom.Point{{X: 5, Y: 2}, {X: 5, Y: 0}, {X: 5, Y: 1}, {X: 5, Y: 3}}, 2, 2},
		{"a grid", grid(4), 8, 8},
		{"duplicates", []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 1}}, 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.NewUndirected()
			for _, p := range tc.points {
				g.AddNode(p)
			}
			p, err := BuildFixedRegions(g, uniformSize(10), tc.regions)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(p, g, uniformSize(10), 1<<62); err != nil {
				t.Fatal(err)
			}
			if p.NumRegions != tc.want {
				t.Errorf("regions = %d, want %d", p.NumRegions, tc.want)
			}
		})
	}
}

// TestTiedCutFailsTheBuild: on a 10×10 unit grid the packed and plain
// builders cut between nodes that share the split coordinate, so Locate
// would send one of them to its neighbour's region. The build fails and
// names the node and its point. The fixed-region split moves off the ties
// and still builds.
func TestTiedCutFailsTheBuild(t *testing.T) {
	g := graph.NewUndirected()
	for _, p := range grid(10) {
		g.AddNode(p)
	}
	size := uniformSize(10)
	for name, build := range map[string]func(*graph.Graph, SizeFunc, int) (*Partition, error){
		"packed": BuildPacked,
		"plain":  BuildPlain,
	} {
		p, err := build(g, size, 64)
		if err == nil {
			t.Fatalf("%s: grid built %d regions; want a tied-cut error", name, p.NumRegions)
		}
		if !regexp.MustCompile(`node \d+ at \(\d+, \d+\)`).MatchString(err.Error()) {
			t.Errorf("%s: error %q does not name the node and its point", name, err)
		}
	}
	p, err := BuildFixedRegions(g, size, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, g, size, 1<<62); err != nil {
		t.Fatal(err)
	}
}

// grid returns the n×n integer lattice: every x and every y is shared by n
// points.
func grid(n int) []geom.Point {
	var pts []geom.Point
	for x := range n {
		for y := range n {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	return pts
}

func TestRegionsAreSpatiallyCoherent(t *testing.T) {
	// Locate of a region's own bounding-box interior points must frequently
	// return that region — regions tile the plane.
	g := testNetwork(t, 0.15)
	size := adjacencySize(g)
	p, err := BuildPacked(g, size, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.NumRegions; r++ {
		for _, v := range p.Members[r] {
			if got := p.Tree.Locate(g.Point(v)); got != RegionID(r) {
				t.Fatalf("member node of region %d located in %d", r, got)
			}
		}
	}
}

func TestClusterCapacityForPIStar(t *testing.T) {
	// PI* allocates multiple pages per region: capacity is a multiple of the
	// page size and region count shrinks accordingly.
	g := testNetwork(t, 0.3)
	size := adjacencySize(g)
	p1, err := BuildPacked(g, size, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := BuildPacked(g, size, 3*4096)
	if err != nil {
		t.Fatal(err)
	}
	if p3.NumRegions >= p1.NumRegions {
		t.Errorf("3-page clusters produced %d regions >= 1-page %d", p3.NumRegions, p1.NumRegions)
	}
	if err := Validate(p3, g, size, 3*4096); err != nil {
		t.Fatal(err)
	}
}
