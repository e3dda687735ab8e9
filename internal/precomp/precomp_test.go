package precomp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/border"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
)

func sizeFn(g *graph.Graph) kdtree.SizeFunc {
	return func(v graph.NodeID) int { return 24 + 10*g.Degree(v) }
}

type fixture struct {
	g    *graph.Graph
	part *kdtree.Partition
	aug  *border.Augmented
	res  *Result
}

func build(t *testing.T, scale float64, capacity int, opts Options) *fixture {
	t.Helper()
	g := gen.GeneratePreset(gen.Oldenburg, scale)
	part, err := kdtree.BuildPacked(g, sizeFn(g), capacity)
	if err != nil {
		t.Fatal(err)
	}
	aug := border.Build(g, part)
	res, err := Compute(aug, part, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, part: part, aug: aug, res: res}
}

// TestPairIndexRoundTrip walks every pair, in (i, j) order, at region
// counts from the degenerate to Argentina@1.0's 1 082 CI regions: indices
// are dense and consecutive, and (j, i) shares (i, j)'s index.
func TestPairIndexRoundTrip(t *testing.T) {
	for _, R := range []int{1, 2, 9, 1082} {
		next := 0
		for i := 0; i < R; i++ {
			for j := i; j < R; j++ {
				k := PairIndex(R, kdtree.RegionID(i), kdtree.RegionID(j))
				if k != next {
					t.Fatalf("R=%d: pair (%d,%d) has index %d, want %d", R, i, j, k, next)
				}
				next++
				if PairIndex(R, kdtree.RegionID(j), kdtree.RegionID(i)) != k {
					t.Fatalf("R=%d: pair (%d,%d) and (%d,%d) have different indices", R, i, j, j, i)
				}
			}
		}
		if next != NumPairs(R) {
			t.Fatalf("R=%d: covered %d of %d pairs", R, next, NumPairs(R))
		}
	}
}

func TestPairIndexCanonicalizesUndirected(t *testing.T) {
	if PairIndex(10, 7, 3) != PairIndex(10, 3, 7) {
		t.Error("undirected pair index not symmetric")
	}
}

func TestBorderNodesSubdivideCrossingEdges(t *testing.T) {
	f := build(t, 0.1, 1024, Options{Sets: true})
	if len(f.aug.Borders) == 0 {
		t.Fatal("no border nodes on a multi-region network")
	}
	// Every border node must sit on an edge whose endpoints are in its two
	// regions, and distances must be preserved by subdivision.
	for _, b := range f.aug.Borders {
		ru := f.part.RegionOf[b.OrigFrom]
		rv := f.part.RegionOf[b.OrigTo]
		if !(ru == b.Regions[0] && rv == b.Regions[1]) && !(ru == b.Regions[1] && rv == b.Regions[0]) {
			t.Fatalf("border %d regions %v do not match endpoints (%d,%d)", b.ID, b.Regions, ru, rv)
		}
		w, ok := f.g.EdgeWeight(b.OrigFrom, b.OrigTo)
		if !ok {
			t.Fatalf("border %d on non-existent edge", b.ID)
		}
		w1, ok1 := f.aug.G.EdgeWeight(b.OrigFrom, b.ID)
		w2, ok2 := f.aug.G.EdgeWeight(b.ID, b.OrigTo)
		if !ok1 || !ok2 || math.Abs(w1+w2-w) > 1e-9 {
			t.Fatalf("border %d splits weight %v into %v + %v", b.ID, w, w1, w2)
		}
	}
}

func TestAugmentedPreservesDistances(t *testing.T) {
	f := build(t, 0.08, 1024, Options{Sets: true})
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		s := graph.NodeID(rng.Intn(f.g.NumNodes()))
		d := graph.NodeID(rng.Intn(f.g.NumNodes()))
		want := graph.ShortestPath(f.g, s, d).Cost
		got := graph.ShortestPath(f.aug.G, s, d).Cost
		if math.Abs(want-got) > 1e-9 {
			t.Fatalf("augmented distance %v != original %v (s=%d t=%d)", got, want, s, d)
		}
	}
}

// TestRegionSetCoverage is the central CI correctness property: every
// shortest path from a node of R_i to a node of R_j stays within
// R_i ∪ R_j ∪ S_i,j.
func TestRegionSetCoverage(t *testing.T) {
	f := build(t, 0.12, 1024, Options{Sets: true})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		s := graph.NodeID(rng.Intn(f.g.NumNodes()))
		d := graph.NodeID(rng.Intn(f.g.NumNodes()))
		rs, rt := f.part.RegionOf[s], f.part.RegionOf[d]
		allowed := map[kdtree.RegionID]bool{rs: true, rt: true}
		for _, r := range f.res.Sets[PairIndex(f.res.NumRegions, rs, rt)] {
			allowed[r] = true
		}
		p := graph.ShortestPath(f.g, s, d)
		if !p.Found() {
			t.Fatal("network should be connected")
		}
		// The canonical shortest path itself may route through regions not
		// in S (tie-breaking); what must hold is that a path of equal cost
		// exists within the allowed regions.
		var keep []graph.NodeID
		for v := 0; v < f.g.NumNodes(); v++ {
			if allowed[f.part.RegionOf[graph.NodeID(v)]] {
				keep = append(keep, graph.NodeID(v))
			}
		}
		sub, oldToNew, _ := inducedSubgraph(f.g, keep)
		got := graph.ShortestPath(sub, oldToNew[s], oldToNew[d])
		if !got.Found() || math.Abs(got.Cost-p.Cost) > 1e-9 {
			t.Fatalf("trial %d: restricted cost %v, true cost %v (s=%d in R%d, t=%d in R%d, |S|=%d)",
				trial, got.Cost, p.Cost, s, rs, d, rt, len(allowed)-2)
		}
	}
}

// inducedSubgraph returns the subgraph of g induced by keep (which must be
// deduplicated) plus a mapping old→new and new→old. Edges with an endpoint
// outside keep are dropped. It is the oracle the S-set tests search in.
func inducedSubgraph(g *graph.Graph, keep []graph.NodeID) (*graph.Graph, map[graph.NodeID]graph.NodeID, []graph.NodeID) {
	oldToNew := make(map[graph.NodeID]graph.NodeID, len(keep))
	newToOld := make([]graph.NodeID, 0, len(keep))
	sub := graph.NewUndirected()
	for _, v := range keep {
		oldToNew[v] = sub.AddNode(g.Point(v))
		newToOld = append(newToOld, v)
	}
	for _, v := range keep {
		for _, he := range g.Adj(v) {
			nu, nv := oldToNew[v], oldToNew[he.To]
			if _, ok := oldToNew[he.To]; !ok {
				continue
			}
			if nu > nv {
				continue // other direction adds it
			}
			sub.MustAddEdge(nu, nv, he.W)
		}
	}
	return sub, oldToNew, newToOld
}

func TestInducedSubgraph(t *testing.T) {
	g := graph.NewUndirected()
	for i := range 6 {
		g.AddNode(geom.Point{X: float64(i)})
	}
	for i := range 5 {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	sub, oldToNew, newToOld := inducedSubgraph(g, []graph.NodeID{1, 2, 3, 5})
	if sub.NumNodes() != 4 {
		t.Fatalf("sub nodes = %d", sub.NumNodes())
	}
	if sub.NumEdges() != 2 { // 1-2, 2-3 survive; 3-4,4-5 drop
		t.Errorf("sub edges = %d, want 2", sub.NumEdges())
	}
	if newToOld[oldToNew[3]] != 3 {
		t.Error("mapping round trip failed")
	}
	d := graph.Dijkstra(sub, oldToNew[1]).Dist[oldToNew[3]]
	if d != 2 {
		t.Errorf("sub dist = %v, want 2", d)
	}
}

// TestSubgraphCoverage is the central PI correctness property: region data
// of R_s and R_t plus the G_s,t edges contain a path of optimal cost.
func TestSubgraphCoverage(t *testing.T) {
	f := build(t, 0.12, 1024, Options{Subgraphs: true})
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		s := graph.NodeID(rng.Intn(f.g.NumNodes()))
		d := graph.NodeID(rng.Intn(f.g.NumNodes()))
		rs, rt := f.part.RegionOf[s], f.part.RegionOf[d]
		want := graph.ShortestPath(f.g, s, d)

		// Assemble the client-visible graph exactly as PI does: nodes and
		// adjacency of the two regions, plus the subgraph edges.
		got := assembleAndSolve(f, rs, rt, s, d)
		if math.Abs(got-want.Cost) > 1e-9 {
			t.Fatalf("trial %d: PI-visible cost %v, true cost %v (s=%d R%d, t=%d R%d)",
				trial, got, want.Cost, s, rs, d, rt)
		}
	}
}

// assembleAndSolve mimics PI client-side processing over raw precomp output.
func assembleAndSolve(f *fixture, rs, rt kdtree.RegionID, s, d graph.NodeID) float64 {
	type key struct{ u, v graph.NodeID }
	adj := map[graph.NodeID][]graph.HalfEdge{}
	seen := map[key]bool{}
	addEdge := func(u, v graph.NodeID, w float64) {
		if !seen[key{u, v}] {
			seen[key{u, v}] = true
			adj[u] = append(adj[u], graph.HalfEdge{To: v, W: w})
		}
	}
	addRegion := func(r kdtree.RegionID) {
		for _, v := range f.part.Members[r] {
			for _, he := range f.g.Adj(v) {
				addEdge(v, he.To, he.W)
				// The reverse direction is stored in the neighbour's page,
				// which may be absent; add it here as region pages describe
				// roads fully.
				addEdge(he.To, v, he.W)
			}
		}
	}
	addRegion(rs)
	addRegion(rt)
	for _, e := range f.res.Subgraphs[PairIndex(f.res.NumRegions, rs, rt)] {
		addEdge(e.From, e.To, e.W)
		addEdge(e.To, e.From, e.W)
	}
	// Dijkstra over the ad-hoc adjacency map.
	dist := map[graph.NodeID]float64{s: 0}
	done := map[graph.NodeID]bool{}
	for {
		var u graph.NodeID
		best := math.Inf(1)
		for v, dv := range dist {
			if !done[v] && dv < best {
				best, u = dv, v
			}
		}
		if math.IsInf(best, 1) {
			return math.Inf(1)
		}
		if u == d {
			return best
		}
		done[u] = true
		for _, he := range adj[u] {
			if nd := best + he.W; nd < distOr(dist, he.To) {
				dist[he.To] = nd
			}
		}
	}
}

func distOr(m map[graph.NodeID]float64, v graph.NodeID) float64 {
	if d, ok := m[v]; ok {
		return d
	}
	return math.Inf(1)
}

func TestSetsExcludeEndpointsAndAreSorted(t *testing.T) {
	f := build(t, 0.12, 1024, Options{Sets: true})
	R := kdtree.RegionID(f.res.NumRegions)
	for i := kdtree.RegionID(0); i < R; i++ {
		for j := i; j < R; j++ {
			set := f.res.Sets[PairIndex(int(R), i, j)]
			for idx, r := range set {
				if r == i || r == j {
					t.Fatalf("S_%d,%d contains endpoint region %d", i, j, r)
				}
				if idx > 0 && set[idx-1] >= r {
					t.Fatalf("S_%d,%d not sorted/deduped: %v", i, j, set)
				}
			}
		}
	}
	if f.res.MaxSetSize == 0 {
		t.Error("MaxSetSize is zero on a multi-region network")
	}
}

func TestSubgraphsDeduplicated(t *testing.T) {
	f := build(t, 0.1, 1024, Options{Subgraphs: true})
	for k, es := range f.res.Subgraphs {
		for idx := 1; idx < len(es); idx++ {
			a, b := es[idx-1], es[idx]
			if a.From == b.From && a.To == b.To {
				t.Fatalf("pair %d has duplicate edge %d->%d", k, a.From, a.To)
			}
			if !edgeLess(a, b) {
				t.Fatalf("pair %d not sorted", k)
			}
		}
		for _, e := range es {
			if w, ok := f.g.EdgeWeight(e.From, e.To); !ok || math.Abs(w-e.W) > 1e-9 {
				t.Fatalf("subgraph edge %d->%d (w=%v) is not an original edge", e.From, e.To, e.W)
			}
		}
	}
}

func TestSameRegionPairsComputed(t *testing.T) {
	// §5.2: S_i,i is needed because a shortest path between border nodes of
	// R_i might pass through a neighbouring region. At minimum the pairs
	// must exist without error; on most partitions some S_i,i is non-empty.
	f := build(t, 0.15, 768, Options{Sets: true})
	nonEmpty := 0
	for i := 0; i < f.res.NumRegions; i++ {
		ri := kdtree.RegionID(i)
		if len(f.res.Sets[PairIndex(f.res.NumRegions, ri, ri)]) > 0 {
			nonEmpty++
		}
	}
	t.Logf("%d of %d same-region sets non-empty", nonEmpty, f.res.NumRegions)
}

func TestComputeRequiresSomething(t *testing.T) {
	f := build(t, 0.05, 1024, Options{Sets: true})
	if _, err := Compute(f.aug, f.part, Options{}); err == nil {
		t.Error("empty options accepted")
	}
}

// TestParallelMatchesSerial: the worker-pool pre-computation must produce
// byte-identical results to the serial one (determinism is load-bearing:
// the query plan, and hence the privacy guarantee, derives from it). The
// worker count is GOMAXPROCS, set to 1 and to 7 here.
func TestParallelMatchesSerial(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.12)
	part, err := kdtree.BuildPacked(g, sizeFn(g), 1024)
	if err != nil {
		t.Fatal(err)
	}
	aug := border.Build(g, part)
	compute := func(workers int) *Result {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		res, err := Compute(aug, part, Options{Sets: true, Subgraphs: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := compute(1), compute(7)
	if serial.MaxSetSize != parallel.MaxSetSize {
		t.Fatalf("MaxSetSize %d != %d", serial.MaxSetSize, parallel.MaxSetSize)
	}
	for k := range serial.Sets {
		if len(serial.Sets[k]) != len(parallel.Sets[k]) {
			t.Fatalf("pair %d: set sizes %d != %d", k, len(serial.Sets[k]), len(parallel.Sets[k]))
		}
		for i := range serial.Sets[k] {
			if serial.Sets[k][i] != parallel.Sets[k][i] {
				t.Fatalf("pair %d differs at %d", k, i)
			}
		}
		if len(serial.Subgraphs[k]) != len(parallel.Subgraphs[k]) {
			t.Fatalf("pair %d: edge counts %d != %d", k, len(serial.Subgraphs[k]), len(parallel.Subgraphs[k]))
		}
		for i := range serial.Subgraphs[k] {
			if serial.Subgraphs[k][i] != parallel.Subgraphs[k][i] {
				t.Fatalf("pair %d edge %d differs", k, i)
			}
		}
	}
}

func TestMaxSetSizeIsTight(t *testing.T) {
	f := build(t, 0.12, 1024, Options{Sets: true})
	max := 0
	for _, s := range f.res.Sets {
		if len(s) > max {
			max = len(s)
		}
	}
	if max != f.res.MaxSetSize {
		t.Errorf("MaxSetSize = %d, actual max %d", f.res.MaxSetSize, max)
	}
}
