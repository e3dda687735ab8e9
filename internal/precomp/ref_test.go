package precomp

// computeRef is Compute as it was before workers were grouped by source
// region: each border's edge chain copied into every pair it serves, the
// workers' partials concatenated, and duplicates removed by a final sort.
// It is kept as it was, renamed, as the equivalence oracle of
// TestComputeMatchesReference, the way the map-based client graph guards
// base.ClientGraph.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/border"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kdtree"
)

// computeRef runs one Dijkstra per border node (parallelized across
// GOMAXPROCS workers), with memoized parent-chain walks extracting the
// region sets and subgraph edges.
func computeRef(aug *border.Augmented, part *kdtree.Partition, opts Options) (*Result, error) {
	if !opts.Sets && !opts.Subgraphs {
		return nil, fmt.Errorf("precomp: nothing requested")
	}
	R := part.NumRegions
	res := &Result{NumRegions: R}
	np := NumPairs(R)
	if opts.Sets {
		res.Sets = make([][]kdtree.RegionID, np)
	}
	if opts.Subgraphs {
		res.Subgraphs = make([][]EdgeRef, np)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(aug.Borders) {
		workers = len(aug.Borders)
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		w := newRefWorker(aug, part, opts, np)
		for bi := range aug.Borders {
			w.processBorder(bi)
		}
		w.mergeInto(res, opts)
	} else {
		var wg sync.WaitGroup
		partial := make([]*refWorker, workers)
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := newRefWorker(aug, part, opts, np)
				// Strided assignment keeps the split deterministic (the
				// merged result is order-independent anyway).
				for bi := wi; bi < len(aug.Borders); bi += workers {
					w.processBorder(bi)
				}
				partial[wi] = w
			}(wi)
		}
		wg.Wait()
		for _, w := range partial {
			w.mergeInto(res, opts)
		}
	}

	if opts.Sets {
		for k, s := range res.Sets {
			res.Sets[k] = dedupeRegions(s)
			if len(res.Sets[k]) > res.MaxSetSize {
				res.MaxSetSize = len(res.Sets[k])
			}
		}
	}
	if opts.Subgraphs {
		for k := range res.Subgraphs {
			res.Subgraphs[k] = dedupeEdges(res.Subgraphs[k])
		}
	}
	return res, nil
}

// refWorker carries one goroutine's scratch state and partial results.
type refWorker struct {
	aug  *border.Augmented
	part *kdtree.Partition
	opts Options
	R    int
	np   int

	words    int
	regbits  []uint64
	regStamp []int32
	walkSrc  []int32
	walkJ    []int32
	stamp    int32
	accum    []uint64
	chain    []graph.NodeID

	sets  [][]kdtree.RegionID
	edges [][]EdgeRef
}

func newRefWorker(aug *border.Augmented, part *kdtree.Partition, opts Options, np int) *refWorker {
	n := aug.G.NumNodes()
	R := part.NumRegions
	w := &refWorker{
		aug: aug, part: part, opts: opts, R: R, np: np,
		words:    (R + 63) / 64,
		regStamp: make([]int32, n),
		walkSrc:  make([]int32, n),
		walkJ:    make([]int32, n),
	}
	w.regbits = make([]uint64, n*w.words)
	w.accum = make([]uint64, w.words)
	for i := range w.regStamp {
		w.regStamp[i] = -1
		w.walkSrc[i] = -1
	}
	if opts.Sets {
		w.sets = make([][]kdtree.RegionID, np)
	}
	if opts.Subgraphs {
		w.edges = make([][]EdgeRef, np)
	}
	return w
}

// mergeInto folds the worker's partial results into the shared result;
// called single-threaded after the pool drains.
func (w *refWorker) mergeInto(res *Result, opts Options) {
	if opts.Sets {
		for k, s := range w.sets {
			if len(s) > 0 {
				res.Sets[k] = append(res.Sets[k], s...)
			}
		}
	}
	if opts.Subgraphs {
		for k, es := range w.edges {
			if len(es) > 0 {
				res.Subgraphs[k] = append(res.Subgraphs[k], es...)
			}
		}
	}
}

func (w *refWorker) setBits(dst []uint64, v graph.NodeID) {
	for _, r := range w.aug.RegionsOfNode(v, w.part) {
		dst[r/64] |= 1 << (uint(r) % 64)
	}
}

// processBorder runs one border node's Dijkstra and harvests its
// contributions to every pair.
func (w *refWorker) processBorder(bi int) {
	aug, part, opts := w.aug, w.part, w.opts
	R, words := w.R, w.words
	regbits, regStamp := w.regbits, w.regStamp
	walkSrc, walkJ := w.walkSrc, w.walkJ
	accum := w.accum
	setBits := w.setBits
	_ = part

	src := aug.Borders[bi].ID
	tree := graph.Dijkstra(aug.G, src)
	w.stamp++
	stamp := w.stamp
	// Seed the source's own region set.
	base := int(src) * words
	for i := 0; i < words; i++ {
		regbits[base+i] = 0
	}
	setBits(regbits[base:base+words], src)
	regStamp[src] = stamp

	// regsetOf computes (memoized) the union of regions over the path
	// src→v by walking the parent chain down to a computed node.
	regsetOf := func(v graph.NodeID) []uint64 {
		w.chain = w.chain[:0]
		u := v
		for regStamp[u] != stamp {
			w.chain = append(w.chain, u)
			u = tree.Parent[u]
			if u == graph.Invalid {
				break
			}
		}
		for i := len(w.chain) - 1; i >= 0; i-- {
			c := w.chain[i]
			cb := int(c) * words
			if u == graph.Invalid {
				for i := 0; i < words; i++ {
					regbits[cb+i] = 0
				}
			} else {
				pb := int(u) * words
				copy(regbits[cb:cb+words], regbits[pb:pb+words])
			}
			setBits(regbits[cb:cb+words], c)
			regStamp[c] = stamp
			u = c
		}
		vb := int(v) * words
		return regbits[vb : vb+words]
	}

	srcRegions := aug.Borders[bi].Regions
	for j := 0; j < R; j++ {
		rj := kdtree.RegionID(j)
		// Collect region bits / edges over all reachable borders of R_j.
		for i := range accum {
			accum[i] = 0
		}
		any := false
		var edges []EdgeRef
		for _, ti := range aug.ByRegion[j] {
			dst := aug.Borders[ti].ID
			if dst == src || math.IsInf(tree.Dist[dst], 1) {
				continue
			}
			any = true
			if opts.Sets {
				for i, bits := range regsetOf(dst) {
					accum[i] |= bits
				}
			}
			if opts.Subgraphs {
				// Walk the parent chain collecting each node's parent
				// edge, stopping at nodes already walked for this
				// (source, j) combination — total work stays linear in
				// the output size.
				for v := dst; v != src; {
					u := tree.Parent[v]
					if u == graph.Invalid {
						break
					}
					if walkSrc[v] == stamp && walkJ[v] == int32(j) {
						break // remainder of the chain already collected
					}
					walkSrc[v] = stamp
					walkJ[v] = int32(j)
					e := aug.OrigEdge(u, v)
					edges = append(edges, EdgeRef{From: e.From, To: e.To, W: e.W})
					v = u
				}
			}
		}
		if !any {
			continue
		}
		for _, ri := range uniqueRegions(srcRegions) {
			k := PairIndex(R, ri, rj)
			if opts.Sets {
				w.sets[k] = mergeBits(w.sets[k], accum, ri, rj)
			}
			if opts.Subgraphs {
				w.edges[k] = append(w.edges[k], edges...)
			}
		}
	}
}

// uniqueRegions drops the duplicate when a border's two regions coincide
// (cannot normally happen, but cheap to guard).
func uniqueRegions(rs [2]kdtree.RegionID) []kdtree.RegionID {
	if rs[0] == rs[1] {
		return rs[:1]
	}
	return rs[:]
}

// mergeBits ORs the accumulated bitset into the sorted region list cur,
// excluding the endpoints i and j.
func mergeBits(cur []kdtree.RegionID, bits []uint64, i, j kdtree.RegionID) []kdtree.RegionID {
	present := map[kdtree.RegionID]bool{}
	for _, r := range cur {
		present[r] = true
	}
	for w, word := range bits {
		for word != 0 {
			b := word & (-word)
			r := kdtree.RegionID(w*64 + popLSB(word))
			word &^= b
			if r != i && r != j && !present[r] {
				present[r] = true
				cur = insertSorted(cur, r)
			}
		}
	}
	return cur
}

func popLSB(w uint64) int {
	n := 0
	for w&1 == 0 {
		w >>= 1
		n++
	}
	return n
}

func insertSorted(s []kdtree.RegionID, r kdtree.RegionID) []kdtree.RegionID {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = r
	return s
}

// dedupeRegions sorts and deduplicates a region list assembled from
// multiple workers' sorted partials.
func dedupeRegions(s []kdtree.RegionID) []kdtree.RegionID {
	if len(s) < 2 {
		return s
	}
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	out := s[:1]
	for _, r := range s[1:] {
		if r != out[len(out)-1] {
			out = append(out, r)
		}
	}
	return out
}

// dedupeEdges sorts by (From, To) and removes duplicates, keeping the
// smallest weight for parallel duplicates.
func dedupeEdges(es []EdgeRef) []EdgeRef {
	if len(es) == 0 {
		return nil
	}
	sortEdges(es)
	out := es[:1]
	for _, e := range es[1:] {
		last := &out[len(out)-1]
		if e.From == last.From && e.To == last.To {
			if e.W < last.W {
				last.W = e.W
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

func sortEdges(es []EdgeRef) {
	quickSortEdges(es)
}

func quickSortEdges(es []EdgeRef) {
	if len(es) < 12 {
		for i := 1; i < len(es); i++ {
			for j := i; j > 0 && edgeLess(es[j], es[j-1]); j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
		return
	}
	p := es[len(es)/2]
	l, r := 0, len(es)-1
	for l <= r {
		for edgeLess(es[l], p) {
			l++
		}
		for edgeLess(p, es[r]) {
			r--
		}
		if l <= r {
			es[l], es[r] = es[r], es[l]
			l++
			r--
		}
	}
	quickSortEdges(es[:r+1])
	quickSortEdges(es[l:])
}

func edgeLess(a, b EdgeRef) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// TestComputeMatchesReference: Compute must reproduce computeRef pair for
// pair — the same S_i,j regions and the same G_i,j edges and weights — on
// generated networks, for every option mix and worker count. With
// roads=repeated, Compute runs on the network rebuilt with every road given
// three times at different weights, and must reproduce computeRef on the
// network rebuilt with each road given once: a repeated road is one road at
// its least weight.
func TestComputeMatchesReference(t *testing.T) {
	for _, scale := range []float64{0.05, 0.15} {
		g := gen.GeneratePreset(gen.Oldenburg, scale)
		for _, roads := range []string{"once", "repeated"} {
			refG, g := g, g
			if roads == "repeated" {
				refG, g = rebuild(g, false), rebuild(g, true)
			}
			part, aug := partition(t, g)
			refPart, refAug := part, aug
			if refG != g {
				refPart, refAug = partition(t, refG)
			}
			for _, opts := range []Options{{Sets: true}, {Subgraphs: true}, {Sets: true, Subgraphs: true}} {
				want, err := computeRef(refAug, refPart, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 7} {
					name := fmt.Sprintf("scale=%v/roads=%s/sets=%v/subgraphs=%v/workers=%d",
						scale, roads, opts.Sets, opts.Subgraphs, workers)
					t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
						got, err := Compute(aug, part, opts)
						if err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, got, want)
					})
				}
			}
		}
	}
}

func partition(t *testing.T, g *graph.Graph) (*kdtree.Partition, *border.Augmented) {
	t.Helper()
	part, err := kdtree.BuildPacked(g, sizeFn(g), 1024)
	if err != nil {
		t.Fatal(err)
	}
	return part, border.Build(g, part)
}

// rebuild copies g's nodes and roads into a new graph, in UndirectedEdges
// order. With repeat, each road u–v of weight w is given three times: as
// v–u at 1.5·w, as u–v at w and as u–v at 2·w.
func rebuild(g *graph.Graph, repeat bool) *graph.Graph {
	out := graph.NewUndirected()
	for v := range g.NumNodes() {
		out.AddNode(g.Point(graph.NodeID(v)))
	}
	g.UndirectedEdges(func(e graph.Edge) bool {
		if repeat {
			out.MustAddEdge(e.To, e.From, 1.5*e.W)
		}
		out.MustAddEdge(e.From, e.To, e.W)
		if repeat {
			out.MustAddEdge(e.From, e.To, 2*e.W)
		}
		return true
	})
	return out
}

func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.NumRegions != want.NumRegions || got.MaxSetSize != want.MaxSetSize {
		t.Fatalf("R=%d m=%d, want R=%d m=%d",
			got.NumRegions, got.MaxSetSize, want.NumRegions, want.MaxSetSize)
	}
	if len(got.Sets) != len(want.Sets) || len(got.Subgraphs) != len(want.Subgraphs) {
		t.Fatalf("%d sets and %d subgraphs, want %d and %d",
			len(got.Sets), len(got.Subgraphs), len(want.Sets), len(want.Subgraphs))
	}
	for k := range want.Sets {
		if !slices.Equal(got.Sets[k], want.Sets[k]) {
			t.Fatalf("pair %d: S = %v, want %v", k, got.Sets[k], want.Sets[k])
		}
	}
	for k := range want.Subgraphs {
		if !slices.Equal(got.Subgraphs[k], want.Subgraphs[k]) {
			t.Fatalf("pair %d: %d G edges, want %d (or weights differ)", k, len(got.Subgraphs[k]), len(want.Subgraphs[k]))
		}
	}
}
