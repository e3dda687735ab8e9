// Package precomp implements the pre-computation of §5.2 and §6: for every
// pair of regions (R_i, R_j) it derives
//
//   - S_i,j — the set of intermediate regions crossed by at least one
//     shortest path between a border node of R_i and a border node of R_j
//     (the Concise Index payload), and
//   - G_i,j — the exact set of original edges appearing on those shortest
//     paths (the Passage Index payload).
//
// Any shortest path from a source in R_i to a destination in R_j is
// guaranteed to lie entirely inside R_i ∪ R_j ∪ S_i,j (respectively
// R_i ∪ R_j ∪ G_i,j): the path exits R_i through some border node v, enters
// R_j through some border node v', and its middle section is a shortest path
// SP(v, v') considered here.
//
// Work is grouped by source region. A worker takes R_i, runs the Dijkstra of
// every border node of R_i on the augmented graph and walks the memoized
// parent chains to the borders of every R_j, which fills the rows (i, j)
// for all j: S bits ORed into one bitset per row, G as the uint32 IDs of
// original edges, numbered once per Compute in (From, To) order. When R_i is
// done, each row is deduplicated and sorted; a pair is the merge of its
// rows i→j and j→i. A border node bounds two regions, so its Dijkstra runs
// once for each: the work is O(2·#borders · E log V + output). Memory
// is, per worker, one region's raw rows and one Dijkstra's scratch, plus the
// deduplicated rows of all pairs.
package precomp

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/border"
	"repro/internal/graph"
	"repro/internal/kdtree"
)

// EdgeRef is an original network edge appearing in a G_i,j subgraph. Weights
// are carried because PI clients receive subgraph edges for regions whose
// pages they never fetch.
type EdgeRef struct {
	From, To graph.NodeID
	W        float64
}

// Options selects what to materialize.
type Options struct {
	Sets      bool // compute S_i,j region sets (CI, HY)
	Subgraphs bool // compute G_i,j edge subgraphs (PI, PI*, HY)
}

// Result holds the materialized pre-computation, indexed by PairIndex.
type Result struct {
	NumRegions int
	// Sets[k] is S_i,j as a sorted slice of region IDs, excluding i and j
	// themselves (the client always fetches the source and destination
	// regions anyway). Nil slices mean "no border pair connects i to j".
	Sets [][]kdtree.RegionID
	// Subgraphs[k] is G_i,j as a slice of original edges, deduplicated,
	// sorted by (From, To).
	Subgraphs [][]EdgeRef
	// MaxSetSize is m: the largest |S_i,j| (§5.4), which fixes the number
	// of region-data pages in CI's query plan.
	MaxSetSize int
}

// NumPairs returns how many (i,j) combinations are materialized: the pairs
// i<=j, as the network is undirected (§5.3: "sets S_i,j where i > j would be
// omitted").
func NumPairs(numRegions int) int {
	return numRegions * (numRegions + 1) / 2
}

// PairIndex flattens (i, j) into an index of Sets/Subgraphs: the pair is
// canonicalized to i <= j, then numbered row by row over the triangle.
func PairIndex(numRegions int, i, j kdtree.RegionID) int {
	if i > j {
		i, j = j, i
	}
	ii := int(i)
	return ii*numRegions - ii*(ii-1)/2 + int(j) - ii
}

// Compute runs the pre-computation over the augmented network. Up to
// GOMAXPROCS workers take source regions from a shared counter and fill
// disjoint rows; the pairs are then assembled in PairIndex order, so the
// result is the same whatever the worker count.
func Compute(aug *border.Augmented, part *kdtree.Partition, opts Options) (*Result, error) {
	if !opts.Sets && !opts.Subgraphs {
		return nil, fmt.Errorf("precomp: nothing requested")
	}
	R := part.NumRegions
	res := &Result{NumRegions: R}
	// setRows[i*R+j] and edgeRows[i*R+j] hold the row i→j.
	var (
		setRows  [][]kdtree.RegionID
		edgeRows [][]uint32
		idx      *edgeIndex
	)
	if opts.Sets {
		setRows = make([][]kdtree.RegionID, R*R)
	}
	if opts.Subgraphs {
		edgeRows = make([][]uint32, R*R)
		idx = newEdgeIndex(aug)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for range max(1, min(runtime.GOMAXPROCS(0), R)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorker(aug, part, idx, opts)
			for i := int(next.Add(1) - 1); i < R; i = int(next.Add(1) - 1) {
				w.region(i)
				if opts.Sets {
					w.finishSets(i, setRows[i*R:(i+1)*R])
				}
				if opts.Subgraphs {
					w.finishEdges(edgeRows[i*R : (i+1)*R])
				}
			}
		}()
	}
	wg.Wait()

	np := NumPairs(R)
	if opts.Sets {
		res.Sets = make([][]kdtree.RegionID, 0, np)
	}
	if opts.Subgraphs {
		res.Subgraphs = make([][]EdgeRef, 0, np)
	}
	var merged []uint32
	for i := range R {
		for j := i; j < R; j++ {
			ij, ji := i*R+j, j*R+i
			both := i != j
			if opts.Sets {
				s := setRows[ij]
				if t := setRows[ji]; both && len(t) > 0 {
					s = union(make([]kdtree.RegionID, 0, len(s)+len(t)), s, t)
				}
				res.Sets = append(res.Sets, s)
				res.MaxSetSize = max(res.MaxSetSize, len(s))
			}
			if opts.Subgraphs {
				ids := edgeRows[ij]
				if both {
					merged = union(merged[:0], ids, edgeRows[ji])
					ids = merged
					edgeRows[ji] = nil
				}
				res.Subgraphs = append(res.Subgraphs, idx.refs(ids))
				edgeRows[ij] = nil
			}
		}
	}
	return res, nil
}

// union appends the sorted union of the sorted, duplicate-free lists a and
// b to dst.
func union[T cmp.Ordered](dst, a, b []T) []T {
	for len(a) > 0 && len(b) > 0 {
		switch x, y := a[0], b[0]; {
		case x < y:
			dst, a = append(dst, x), a[1:]
		case y < x:
			dst, b = append(dst, y), b[1:]
		default:
			dst, a, b = append(dst, x), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// edgeIndex numbers the original network's arcs densely in (From, To) order.
// An arc of the augmented graph maps to its original arc by arithmetic on
// its border node, so the chain walks neither hash arcs nor copy edges.
type edgeIndex struct {
	aug   *border.Augmented
	edges []EdgeRef // by ID
	first []int     // per original node: the ID of its first outgoing arc
}

func newEdgeIndex(aug *border.Augmented) *edgeIndex {
	x := &edgeIndex{aug: aug, first: make([]int, aug.NumOrig)}
	for u := range graph.NodeID(aug.NumOrig) {
		x.first[u] = len(x.edges)
		for _, he := range aug.G.Adj(u) {
			e := graph.Edge{From: u, To: he.To, W: he.W}
			if aug.IsBorder(he.To) {
				e = aug.OrigEdge(u, he.To)
			}
			x.edges = append(x.edges, EdgeRef(e))
		}
		slices.SortFunc(x.edges[x.first[u]:], func(a, b EdgeRef) int { return cmp.Compare(a.To, b.To) })
	}
	return x
}

// edgeOf returns the ID of the original arc under the augmented arc u→v: a
// border node stands for the far end of the edge it subdivides.
func (x *edgeIndex) edgeOf(u, v graph.NodeID) uint32 {
	if x.aug.IsBorder(u) {
		b := x.aug.BorderAt(u)
		u = b.OrigFrom + b.OrigTo - v
	} else if x.aug.IsBorder(v) {
		b := x.aug.BorderAt(v)
		v = b.OrigFrom + b.OrigTo - u
	}
	k := x.first[u]
	for x.edges[k].To != v {
		k++
	}
	return uint32(k)
}

// refs expands a sorted ID list into edges; nil when it is empty.
func (x *edgeIndex) refs(ids []uint32) []EdgeRef {
	if len(ids) == 0 {
		return nil
	}
	out := make([]EdgeRef, len(ids))
	for k, id := range ids {
		out[k] = x.edges[id]
	}
	return out
}

// worker carries one goroutine's scratch state. Per Dijkstra: the memoized
// region set of the path to each node (Sets), and the chain walks' marks
// and parent-edge IDs (Subgraphs). Per source region: each row's S bits
// and raw G edge IDs, and the epoch marks that deduplicate a row's IDs.
type worker struct {
	aug   *border.Augmented
	part  *kdtree.Partition
	idx   *edgeIndex
	sp    *graph.Searcher
	words int

	stamp    int32
	regbits  []uint64
	regStamp []int32
	chain    []graph.NodeID
	walks    []walkMark

	rowBits []uint64
	raw     [][]uint32
	seen    []int32
	epoch   int32
}

func newWorker(aug *border.Augmented, part *kdtree.Partition, idx *edgeIndex, opts Options) *worker {
	n := aug.G.NumNodes()
	R := part.NumRegions
	w := &worker{aug: aug, part: part, idx: idx, sp: graph.NewSearcher(aug.G), words: (R + 63) / 64}
	if opts.Sets {
		w.regbits = make([]uint64, n*w.words)
		w.regStamp = make([]int32, n)
		w.rowBits = make([]uint64, R*w.words)
	}
	if opts.Subgraphs {
		w.walks = make([]walkMark, n)
		w.raw = make([][]uint32, R)
		w.seen = make([]int32, len(idx.edges))
	}
	return w
}

// region runs the Dijkstra of every border node of R_i and harvests its
// contributions to the rows (i, j) for every j.
func (w *worker) region(i int) {
	clear(w.rowBits)
	for j := range w.raw {
		w.raw[j] = w.raw[j][:0]
	}
	for _, bi := range w.aug.ByRegion[i] {
		w.border(w.aug.Borders[bi].ID)
	}
}

// finishSets lists each row's S bits as sorted region IDs, i and j excluded
// (the client always fetches the source and destination regions anyway);
// nil for an empty row.
func (w *worker) finishSets(i int, rows [][]kdtree.RegionID) {
	for j := range rows {
		row := w.rowBits[j*w.words : (j+1)*w.words]
		row[i/64] &^= 1 << (i % 64)
		row[j/64] &^= 1 << (j % 64)
		n := 0
		for _, word := range row {
			n += bits.OnesCount64(word)
		}
		if n == 0 {
			continue
		}
		s := make([]kdtree.RegionID, 0, n)
		for k, word := range row {
			for ; word != 0; word &= word - 1 {
				s = append(s, kdtree.RegionID(k*64+bits.TrailingZeros64(word)))
			}
		}
		rows[j] = s
	}
}

// finishEdges deduplicates each row's raw edge IDs in place and stores them
// sorted; nil for an empty row.
func (w *worker) finishEdges(rows [][]uint32) {
	for j := range rows {
		raw := w.raw[j]
		w.epoch++
		n := 0
		for _, id := range raw {
			if w.seen[id] != w.epoch {
				w.seen[id] = w.epoch
				raw[n] = id
				n++
			}
		}
		if n > 0 {
			rows[j] = slices.Clone(raw[:n])
			slices.Sort(rows[j])
		}
	}
}

// border runs one border node's Dijkstra and ORs its contribution to every
// R_j into the current region's rows.
func (w *worker) border(src graph.NodeID) {
	aug, words := w.aug, w.words
	tree := w.sp.From(src)
	w.stamp++
	if w.regbits != nil {
		seed := w.regbits[int(src)*words : int(src+1)*words]
		clear(seed)
		w.setBits(seed, src)
		w.regStamp[src] = w.stamp
	}
	for j, borders := range aug.ByRegion {
		for _, ti := range borders {
			dst := aug.Borders[ti].ID
			if dst == src || math.IsInf(tree.Dist[dst], 1) {
				continue
			}
			if w.regbits != nil {
				row := w.rowBits[j*words : (j+1)*words]
				for k, b := range w.regsetOf(tree, dst) {
					row[k] |= b
				}
			}
			if w.idx != nil {
				w.raw[j] = w.walk(tree, src, dst, j, w.raw[j])
			}
		}
	}
}

// walk appends the edge IDs of the chain dst→src to raw, stopping at nodes
// already walked for this (source, j) combination, so the total work stays
// linear in the output size.
func (w *worker) walk(tree *graph.SPTree, src, dst graph.NodeID, j int, raw []uint32) []uint32 {
	for v := dst; v != src; {
		u, m := tree.Parent[v], &w.walks[v]
		if u == graph.Invalid || (m.stamp == w.stamp && m.j == int32(j)) {
			break
		}
		if m.stamp != w.stamp {
			m.stamp, m.edge = w.stamp, w.idx.edgeOf(u, v)
		}
		m.j = int32(j)
		raw = append(raw, m.edge)
		v = u
	}
	return raw
}

// walkMark is a node's state in the current tree's chain walks: the last
// row j walked through it, and the ID of its parent edge.
type walkMark struct {
	stamp, j int32
	edge     uint32
}

// regsetOf computes (memoized) the union of regions over the path src→v by
// walking the parent chain down to a computed node.
func (w *worker) regsetOf(tree *graph.SPTree, v graph.NodeID) []uint64 {
	words, regbits := w.words, w.regbits
	w.chain = w.chain[:0]
	u := v
	for w.regStamp[u] != w.stamp {
		w.chain = append(w.chain, u)
		u = tree.Parent[u]
		if u == graph.Invalid {
			break
		}
	}
	for i := len(w.chain) - 1; i >= 0; i-- {
		c := w.chain[i]
		cb := regbits[int(c)*words : int(c+1)*words]
		if u == graph.Invalid {
			clear(cb)
		} else {
			copy(cb, regbits[int(u)*words:int(u+1)*words])
		}
		w.setBits(cb, c)
		w.regStamp[c] = w.stamp
		u = c
	}
	return regbits[int(v)*words : int(v+1)*words]
}

// setBits marks the regions of augmented node v: its own for an original
// node, both of a border node's.
func (w *worker) setBits(dst []uint64, v graph.NodeID) {
	if !w.aug.IsBorder(v) {
		r := w.part.RegionOf[v]
		dst[r/64] |= 1 << (r % 64)
		return
	}
	for _, r := range w.aug.BorderAt(v).Regions {
		dst[r/64] |= 1 << (r % 64)
	}
}
