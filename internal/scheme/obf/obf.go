// Package obf implements the obfuscation comparator of §7.3, based on the
// navigational-path-privacy scheme of Lee et al. [22]: instead of the real
// source s and destination t, the client sends obfuscation sets S ∋ s and
// T ∋ t (decoys drawn uniformly from the network, per the paper's §7.3
// modification). The LBS computes all |S|·|T| shortest paths and returns
// them; the client keeps the one for (s, t).
//
// OBF provides only weak privacy — the LBS learns that s ∈ S and t ∈ T, and
// the returned paths reveal much about the route — and is included purely as
// the performance yardstick of Figure 6.
package obf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/scheme/base"
)

// Options configures the baseline.
type Options struct {
	PageSize int
	// SetSize is |S| = |T| (Figure 6's x-axis).
	SetSize int
	// Seed drives decoy selection.
	Seed int64
}

// DefaultOptions uses the smallest set size of Figure 6.
func DefaultOptions() Options {
	return Options{PageSize: pagefile.DefaultPageSize, SetSize: 20, Seed: 1}
}

// SchemeName identifies the baseline in reports.
const SchemeName = "OBF"

// Server is the obfuscation LBS: it holds the plaintext network and answers
// obfuscated queries with ordinary (non-private) processing.
type Server struct {
	g     *graph.Graph
	model costmodel.Params
	opt   Options
	rng   *rand.Rand
	// dbPages models the on-disk footprint of the raw network, for the
	// space charts and the disk component of server processing.
	dbPages int
}

// NewServer prepares the baseline server.
func NewServer(g *graph.Graph, model costmodel.Params, opt Options) (*Server, error) {
	if opt.PageSize <= 0 {
		opt.PageSize = pagefile.DefaultPageSize
	}
	if opt.SetSize < 1 {
		return nil, fmt.Errorf("obf: set size %d < 1", opt.SetSize)
	}
	return &Server{
		g:       g,
		model:   model,
		opt:     opt,
		rng:     rand.New(rand.NewSource(opt.Seed)),
		dbPages: (rawNetworkBytes(g) + opt.PageSize - 1) / opt.PageSize,
	}, nil
}

// rawNetworkBytes sizes the network as the LBS would store it: per node
// id + coordinates + adjacency (§5.3 record layout without any index).
func rawNetworkBytes(g *graph.Graph) int {
	total := 0
	for v := 0; v < g.NumNodes(); v++ {
		total += 4 + 8 + 8 + 2 + g.Degree(graph.NodeID(v))*(4+8)
	}
	return total
}

// DatabaseBytes reports the baseline's storage footprint: the raw network
// rounded up to whole pages.
func (s *Server) DatabaseBytes() int64 { return int64(s.dbPages) * int64(s.opt.PageSize) }

// Query runs one obfuscated query. Decoys are uniform random nodes; the
// server computes one full Dijkstra per candidate source (covering every
// candidate destination), which is the cheapest faithful execution of the
// all-pairs requirement. Cancelling ctx aborts between per-source Dijkstra
// runs — OBF has no fixed plan to honor, so aborting mid-computation leaks
// nothing the baseline does not already leak.
func (s *Server) Query(ctx context.Context, sPt, tPt geom.Point) (*base.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k := s.opt.SetSize
	clientStart := time.Now()
	sNode := s.g.NearestNode(sPt)
	tNode := s.g.NearestNode(tPt)
	sources := s.decoys(sNode, k)
	dests := s.decoys(tNode, k)
	clientPrep := time.Since(clientStart)

	// Server processing: |S| Dijkstras (measured) + reading the network
	// from disk (modelled).
	serverStart := time.Now()
	var paths [][]graph.NodeID
	var want graph.Path
	pathBytes := 0
	for _, src := range sources {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tree := graph.Dijkstra(s.g, src)
		for _, dst := range dests {
			p := tree.PathTo(dst)
			paths = append(paths, p.Nodes)
			pathBytes += 8 + 4*len(p.Nodes)
			if src == sNode && dst == tNode {
				want = p
			}
		}
	}
	serverCompute := time.Since(serverStart)
	serverDisk := s.model.PlainRead(s.dbPages)

	// Communication: the request (2k coordinates) up, all paths down.
	reqBytes := 2 * k * 16
	comm := s.model.RTT + s.model.Transfer(reqBytes) + s.model.Transfer(pathBytes)

	// Client filters the |S|·|T| paths (measured).
	clientStart = time.Now()
	found := 0
	for _, p := range paths {
		if len(p) > 0 && p[0] == sNode && p[len(p)-1] == tNode {
			found++
		}
	}
	if found == 0 && want.Found() {
		return nil, fmt.Errorf("obf: real pair's path missing from response")
	}
	clientPick := time.Since(clientStart)

	res := &base.Result{
		Cost:          want.Cost,
		Path:          want.Nodes,
		SnappedSource: sNode,
		SnappedDest:   tNode,
		Stats: lbs.Stats{
			Server: serverCompute + serverDisk,
			Comm:   comm,
			Client: clientPrep + clientPick,
			Rounds: 1,
		},
		// The trace is exactly what OBF leaks: the candidate sets. Encoded
		// here so tests can demonstrate the leakage CI/PI avoid.
		Trace: fmt.Sprintf("obfuscated query: |S|=%d |T|=%d sources=%v dests=%v", k, k, sources, dests),
	}
	if math.IsInf(want.Cost, 1) {
		res.Path = nil
	}
	return res, nil
}

// decoys returns k candidates: the real node plus k-1 uniform decoys,
// shuffled so position reveals nothing.
func (s *Server) decoys(real graph.NodeID, k int) []graph.NodeID {
	out := []graph.NodeID{real}
	for len(out) < k {
		d := graph.NodeID(s.rng.Intn(s.g.NumNodes()))
		if d != real {
			out = append(out, d)
		}
	}
	s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
