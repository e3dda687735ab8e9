package base

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/precomp"
)

// ClientGraph is the partial network a querying client assembles from the
// region pages and index records it fetched. All shortest-path computation
// happens here, on the client, never at the LBS (§3.1).
//
// Local numbering. The graph numbers the nodes it meets 0, 1, 2, … in the
// order it first meets them — as a record, as a neighbour, as a search
// endpoint — and keeps everything in slices indexed by that number: one node
// table (point, region hint, has-record flag), one edge arena holding every
// node's adjacency as a list in insertion order, LM's landmark vectors and
// AF's Arc flags in tables beside those two, and the search's g, parent and
// open list. A slice indexed by network id, grown on demand to the largest
// id met, maps ids to local numbers; the methods speak network ids. Ids
// beyond what the database could hold are refused, so a corrupt page cannot
// size the index, and so are weights that are negative or NaN: a negative
// cycle would keep the search reopening nodes without end.
//
// Dedupe. The first u→v half-edge wins: a later one with the same endpoints —
// the mirror of a road whose other page arrives too, a PI
// subgraph edge a region page already listed — is dropped, found by scanning
// u's list, which is as short as u's degree. Arc flags and region hints keep
// the latest value written.
//
// Pooling. A query's graph comes from graphList when its session first asks
// for it (Session.Graph) and goes back, slices kept, in Session.Finish,
// unless it grew past maxPooledBytes. Nothing read from it — candidate lists,
// landmark vectors, flags — may be held past Finish; paths returned by
// Search belong to the caller.
type ClientGraph struct {
	maxID   graph.NodeID // largest id the database could hold
	index   []int32      // network id → local number + 1; 0 = not met
	nodes   []cgNode
	edges   []cgEdge
	records int // nodes whose record arrived

	// LM's landmark vectors and AF's Arc flags sit beside the tables they
	// belong to, so CI, PI and HY pay nothing for them: nodeLM[v] locates
	// v's vector in lms, edgeFlags[e] e's bit-vector in flags. Both grow
	// only once a page carries vectors or flags.
	nodeLM    []span
	edgeFlags []span
	lms       []float64
	flags     []byte

	// Region decoding: the ids of every record decoded, in page order (a
	// region's run of them is its endpoint candidates), the record being
	// decoded, and a multi-page cluster joined into one buffer.
	recIDs  []graph.NodeID
	rec     int32
	cluster []byte

	// Search state, by local number.
	g      []float64
	parent []int32
	open   []pqItem

	observe func(string) // the borrowing session's test observer, if any
}

// cgNode is one row of the node table.
type cgNode struct {
	id          graph.NodeID
	first       int32 // adjacency list in edges; -1 = empty
	pt          geom.Point
	hint        kdtree.RegionID
	hinted, has bool
}

// cgEdge is one half-edge of a node's adjacency list.
type cgEdge struct {
	to, next int32 // next: the list's following edge, -1 = end
	w        float64
}

// span locates a landmark vector or flag bit-vector in its arena; n = 0 is
// none.
type span struct{ off, n int32 }

// NewClientGraph returns an empty client graph.
func NewClientGraph() *ClientGraph {
	return &ClientGraph{maxID: math.MaxInt32}
}

// graphList holds the graphs of finished queries, slices kept: a bounded
// channel rather than a sync.Pool, whose per-P caches miss when a query
// moves to another P. It keeps at most listCap graphs of at most
// maxPooledBytes each, 8 MiB at worst.
var graphList = make(chan *ClientGraph, listCap)

// listCap bounds graphList and walkList: as many graphs or walks as
// queries finish at once are kept, up to this many.
const listCap = 16

// borrowClientGraph takes an empty graph from graphList, or a new one;
// release returns it.
func borrowClientGraph() *ClientGraph {
	var cg *ClientGraph
	select {
	case cg = <-graphList:
	default:
		cg = new(ClientGraph)
	}
	cg.maxID = math.MaxInt32
	return cg
}

// maxPooledBytes caps the graphs graphList keeps, the way fmt caps the
// buffers it pools (golang.org/issue/23199). A pooled graph is resident
// while idle; one that grew to most of the network — AF's whole-cluster
// fetches, a long LM frontier — is cheaper to allocate again than to hold.
// CI's graphs on Oldenburg hold about 430 KB.
const maxPooledBytes = 512 << 10

// release empties cg and returns it to graphList, unless it grew past
// maxPooledBytes or the list is full.
func (cg *ClientGraph) release() {
	if cg.footprint() > maxPooledBytes {
		return
	}
	for _, n := range cg.nodes {
		cg.index[n.id] = 0
	}
	cg.nodes, cg.edges, cg.records = cg.nodes[:0], cg.edges[:0], 0
	cg.nodeLM, cg.edgeFlags, cg.lms, cg.flags = cg.nodeLM[:0], cg.edgeFlags[:0], cg.lms[:0], cg.flags[:0]
	cg.recIDs = cg.recIDs[:0]
	cg.observe = nil
	select {
	case graphList <- cg:
	default:
	}
}

// footprint is the bytes cg's slices hold, at cgNode's 32 and cgEdge's 16
// bytes an element.
func (cg *ClientGraph) footprint() int {
	return 4*cap(cg.index) + 32*cap(cg.nodes) + 16*cap(cg.edges) +
		8*(cap(cg.nodeLM)+cap(cg.edgeFlags)+cap(cg.lms)) + cap(cg.flags) +
		4*cap(cg.recIDs) + cap(cg.cluster) + 12*cap(cg.g) + 16*cap(cg.open)
}

// lookup returns v's local number, or -1 if the graph has not met v.
func (cg *ClientGraph) lookup(v graph.NodeID) int32 {
	if v < 0 || int(v) >= len(cg.index) {
		return -1
	}
	return cg.index[v] - 1
}

// local returns v's local number, numbering v if it is new; false for an id
// beyond maxID.
func (cg *ClientGraph) local(v graph.NodeID) (int32, bool) {
	if v < 0 || v > cg.maxID {
		return -1, false
	}
	if int(v) >= len(cg.index) {
		cg.index = append(cg.index, make([]int32, int(v)+1-len(cg.index))...)
	}
	if l := cg.index[v]; l > 0 {
		return l - 1, true
	}
	l := int32(len(cg.nodes))
	cg.nodes = append(cg.nodes, cgNode{id: v, first: -1})
	cg.index[v] = l + 1
	return l, true
}

// addEdge appends u→v to u's list unless u already has an edge to v, and
// returns the edge that stays. The scan for a duplicate ends at the list's
// tail, where a new edge goes.
func (cg *ClientGraph) addEdge(u, v int32, w float64) int32 {
	last := int32(-1)
	for e := cg.nodes[u].first; e >= 0; e = cg.edges[e].next {
		if cg.edges[e].to == v {
			return e
		}
		last = e
	}
	e := int32(len(cg.edges))
	cg.edges = append(cg.edges, cgEdge{to: v, next: -1, w: w})
	if last < 0 {
		cg.nodes[u].first = e
	} else {
		cg.edges[last].next = e
	}
	return e
}

// setSpan records sp as entry i of side, a table beside nodes or edges,
// growing it with empty spans as far as i.
func setSpan(side *[]span, i int32, sp span) {
	if int(i) >= len(*side) {
		*side = append(*side, make([]span, int(i)+1-len(*side))...)
	}
	(*side)[i] = sp
}

// spanOf returns entry i of side, empty if side never grew that far.
func spanOf(side []span, i int32) span {
	if int(i) < len(side) {
		return side[i]
	}
	return span{}
}

// findEdge returns the edge u→v, or -1.
func (cg *ClientGraph) findEdge(u, v int32) int32 {
	if u < 0 || v < 0 {
		return -1
	}
	for e := cg.nodes[u].first; e >= 0; e = cg.edges[e].next {
		if cg.edges[e].to == v {
			return e
		}
	}
	return -1
}

// addRegion decodes one fetched region cluster (layout per the header) into
// the graph and returns the ids of its records, in page order: the
// candidates Nearest snaps an endpoint among.
func (cg *ClientGraph) addRegion(hdr *Header, pages [][]byte) ([]graph.NodeID, error) {
	if len(pages) == 0 {
		return nil, fmt.Errorf("base: empty region cluster")
	}
	l := hdr.regionLayout()
	// Ids are dense and every node has one record in some region cluster,
	// so a valid id stays below the records all clusters could hold.
	cg.maxID = graph.NodeID(min(len(hdr.RegionFirstPage)*len(pages)*len(pages[0])/l.minRecord(), math.MaxInt32) - 1)
	data := pages[0]
	if len(pages) > 1 {
		cg.cluster = cg.cluster[:0]
		for _, p := range pages {
			cg.cluster = append(cg.cluster, p...)
		}
		data = cg.cluster
	}
	lo := len(cg.recIDs)
	if err := decodeRegion(data, l, cg); err != nil {
		return nil, err
	}
	if lo == len(cg.recIDs) {
		return []graph.NodeID{}, nil // no records: no candidates, not "all nodes"
	}
	return cg.recIDs[lo:len(cg.recIDs):len(cg.recIDs)], nil
}

// record implements regionSink: it opens node id's record. For LM pages lm
// holds the landmark vector as stored, little-endian float64s.
func (cg *ClientGraph) record(id graph.NodeID, pt geom.Point, lm []byte) error {
	u, ok := cg.local(id)
	if !ok {
		return fmt.Errorf("base: region record of node %d, beyond the database's largest id %d", id, cg.maxID)
	}
	n := &cg.nodes[u]
	n.pt = pt
	if !n.has {
		n.has = true
		cg.records++
	}
	if len(lm) > 0 {
		setSpan(&cg.nodeLM, u, span{int32(len(cg.lms)), int32(len(lm) / 8)})
		for ; len(lm) >= 8; lm = lm[8:] {
			cg.lms = append(cg.lms, math.Float64frombits(binary.LittleEndian.Uint64(lm)))
		}
	}
	cg.rec = u
	cg.recIDs = append(cg.recIDs, id)
	return nil
}

// edge implements regionSink: it adds one half-edge of the open record and
// its reverse, which may live in a page the client never fetches; Arc flags
// are symmetrized at build time, so the reverse shares the bit-vector.
func (cg *ClientGraph) edge(to graph.NodeID, w float64, toRegion kdtree.RegionID, flags []byte) error {
	if !(w >= 0) {
		return fmt.Errorf("base: region record links node %d at weight %v", to, w)
	}
	v, ok := cg.local(to)
	if !ok {
		return fmt.Errorf("base: region record links node %d, beyond the database's largest id %d", to, cg.maxID)
	}
	u := cg.rec
	e := cg.addEdge(u, v, w)
	cg.nodes[v].hint, cg.nodes[v].hinted = toRegion, true
	rev := cg.addEdge(v, u, w)
	if len(flags) > 0 {
		sp := span{int32(len(cg.flags)), int32(len(flags))}
		cg.flags = append(cg.flags, flags...)
		setSpan(&cg.edgeFlags, e, sp)
		setSpan(&cg.edgeFlags, rev, sp)
	}
	return nil
}

// AddSubgraphEdges merges PI-style G_i,j edges. An id beyond the database's
// range, or a weight that is negative or NaN, is corrupt index data and an
// error.
func (cg *ClientGraph) AddSubgraphEdges(edges []precomp.EdgeRef) error {
	for _, e := range edges {
		if !(e.W >= 0) {
			return fmt.Errorf("base: subgraph edge %d→%d at weight %v", e.From, e.To, e.W)
		}
		u, okU := cg.local(e.From)
		v, okV := cg.local(e.To)
		if !okU || !okV {
			return fmt.Errorf("base: subgraph edge %d→%d, beyond the database's largest id %d", e.From, e.To, cg.maxID)
		}
		cg.addEdge(u, v, e.W)
		cg.addEdge(v, u, e.W)
	}
	return nil
}

// Has reports whether v's record (not just its id as a neighbour) was added.
func (cg *ClientGraph) Has(v graph.NodeID) bool {
	l := cg.lookup(v)
	return l >= 0 && cg.nodes[l].has
}

// RegionHint returns the region a referenced-but-unfetched node lives in,
// as recorded in the adjacency entry that discovered it.
func (cg *ClientGraph) RegionHint(v graph.NodeID) (kdtree.RegionID, bool) {
	l := cg.lookup(v)
	if l < 0 || !cg.nodes[l].hinted {
		return 0, false
	}
	return cg.nodes[l].hint, true
}

// EdgeFlags returns the Arc-flag bit-vector of edge u→v, or nil if unknown.
func (cg *ClientGraph) EdgeFlags(u, v graph.NodeID) []byte {
	e := cg.findEdge(cg.lookup(u), cg.lookup(v))
	if e < 0 {
		return nil
	}
	sp := spanOf(cg.edgeFlags, e)
	if sp.n == 0 {
		return nil
	}
	return cg.flags[sp.off : sp.off+sp.n]
}

// Point returns v's coordinates (zero if unknown).
func (cg *ClientGraph) Point(v graph.NodeID) geom.Point {
	if l := cg.lookup(v); l >= 0 {
		return cg.nodes[l].pt
	}
	return geom.Point{}
}

// LMVector returns v's landmark vector, or nil.
func (cg *ClientGraph) LMVector(v graph.NodeID) []float64 {
	l := cg.lookup(v)
	if l < 0 {
		return nil
	}
	sp := spanOf(cg.nodeLM, l)
	if sp.n == 0 {
		return nil
	}
	return cg.lms[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// NumNodes returns how many node records are known.
func (cg *ClientGraph) NumNodes() int { return cg.records }

// Nearest returns the known node closest to p, restricted to candidates
// (nil = all known nodes). Clients snap arbitrary query coordinates to the
// network this way (§5.4: sources and destinations may lie anywhere); the
// candidates are what Session.FetchRegions returned for the endpoint's region.
func (cg *ClientGraph) Nearest(p geom.Point, candidates []graph.NodeID) graph.NodeID {
	best, bestD := graph.Invalid, math.Inf(1)
	if candidates != nil {
		for _, v := range candidates {
			if d := p.Dist(cg.Point(v)); d < bestD {
				best, bestD = v, d
			}
		}
		return best
	}
	for _, n := range cg.nodes {
		if d := p.Dist(n.pt); n.has && d < bestD {
			best, bestD = n.id, d
		}
	}
	return best
}

// pqItem is an open-list entry of the client search.
type pqItem struct {
	node int32
	f    float64
}

// push and pop keep container/heap's sift order exactly: ties between equal
// f values break as they do under container/heap, so paths match the
// map-based reference node for node.
func (cg *ClientGraph) push(it pqItem) {
	q := append(cg.open, it)
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].f < q[i].f) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	cg.open = q
}

func (cg *ClientGraph) pop() pqItem {
	q := cg.open
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].f < q[j1].f {
			j = j2 // right child
		}
		if !(q[j].f < q[i].f) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	cg.open = q[:n]
	return q[n]
}

// fitSearch sizes g and parent to the node table: entries of nodes met since
// the last call start unreached.
func (cg *ClientGraph) fitSearch() {
	for len(cg.g) < len(cg.nodes) {
		cg.g = append(cg.g, math.Inf(1))
		cg.parent = append(cg.parent, -1)
	}
}

// Dijkstra computes a shortest path s→t over the assembled graph. It
// returns +Inf cost when t is unreachable from the fetched data (which, for
// a correct scheme, means unreachable in the full network).
func (cg *ClientGraph) Dijkstra(s, t graph.NodeID) (float64, []graph.NodeID) {
	return cg.Search(s, t, nil, nil, nil)
}

// Search is the configurable client-side best-first search used by every
// scheme:
//
//   - h, if non-nil, is an admissible heuristic (A*; LM supplies landmark
//     bounds). Inadmissible drift from unknown nodes is avoided by treating
//     missing information as h=0 and allowing reopening.
//   - allowEdge, if non-nil, filters edges (AF supplies flag filtering).
//   - onSettle, if non-nil, runs when a node is settled, before expansion;
//     LM/AF fetch missing region pages there. Returning false aborts.
//
// The search is correct for admissible-but-inconsistent heuristics because
// g-improvements re-queue nodes (reopening).
func (cg *ClientGraph) Search(
	s, t graph.NodeID,
	h func(graph.NodeID) float64,
	allowEdge func(from graph.NodeID, e graph.HalfEdge) bool,
	onSettle func(graph.NodeID) bool,
) (float64, []graph.NodeID) {
	if cg.observe != nil {
		cg.observe("search")
	}
	if h == nil {
		h = func(graph.NodeID) float64 { return 0 }
	}
	sl, ok := cg.local(s)
	if !ok { // an id no record can carry: s reaches nothing but itself
		if s == t {
			return 0, []graph.NodeID{s}
		}
		return math.Inf(1), nil
	}
	tl, _ := cg.local(t) // -1 when t cannot exist: never settled
	cg.g, cg.parent = cg.g[:0], cg.parent[:0]
	cg.fitSearch()
	cg.g[sl] = 0
	cg.open = append(cg.open[:0], pqItem{node: sl, f: h(s)})
	for len(cg.open) > 0 {
		it := cg.pop()
		v := it.node
		gv, vid := cg.g[v], cg.nodes[v].id
		if it.f > gv+h(vid)+1e-12 {
			continue // stale entry
		}
		if v == tl {
			return gv, cg.path(sl, tl)
		}
		if onSettle != nil {
			if !onSettle(vid) {
				return math.Inf(1), nil
			}
			cg.fitSearch()
		}
		for e := cg.nodes[v].first; e >= 0; e = cg.edges[e].next {
			he := cg.edges[e]
			to := cg.nodes[he.to].id
			if allowEdge != nil && !allowEdge(vid, graph.HalfEdge{To: to, W: he.w}) {
				continue
			}
			nd := gv + he.w
			reached := he.to == sl || cg.parent[he.to] >= 0
			if !reached || nd < cg.g[he.to]-1e-15 {
				cg.g[he.to] = nd
				cg.parent[he.to] = v
				cg.push(pqItem{node: he.to, f: nd + h(to)})
			}
		}
	}
	return math.Inf(1), nil
}

// path walks the parent links back from t; nil if they do not reach s.
func (cg *ClientGraph) path(s, t int32) []graph.NodeID {
	n := 1
	for v := t; v != s; v = cg.parent[v] {
		if cg.parent[v] < 0 {
			return nil
		}
		n++
	}
	path := make([]graph.NodeID, n)
	for i, v := n-1, t; i >= 0; i, v = i-1, cg.parent[v] {
		path[i] = cg.nodes[v].id
	}
	return path
}
