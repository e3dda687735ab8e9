// Package scheme_test holds the cross-scheme property the plan walker exists
// for: what a query sends is a function of the public plan alone.
package scheme_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/scheme/af"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/hy"
	"repro/internal/scheme/lm"
	"repro/internal/scheme/pi"
)

// frame is one ReadPages call as a network observer sees it: frame
// boundaries show on the wire even though page numbers do not.
type frame struct {
	Round int
	File  string
	Pages int
}

// recorder is an in-process service that records every frame a query sends.
type recorder struct {
	*lbs.Server
	round  int
	frames []frame
}

func (r *recorder) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, r) }

func (r *recorder) NextRound(ctx context.Context) error {
	r.round++
	return r.Server.NextRound(ctx)
}

func (r *recorder) ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error) {
	r.frames = append(r.frames, frame{r.round, file, len(pages)})
	return r.Server.ReadPages(ctx, file, pages)
}

// pipelined gives a recording backend the batch face (lbs.RoundReader): the
// session hands it whole batches, and it records them frame by frame
// through the wrapped backend's own NextRound and ReadPages, so a test run
// over both it and the bare backend holds the batch path and the
// frame-by-frame path to the same record.
type pipelined struct{ lbs.Backend }

func (p pipelined) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, p) }

func (p pipelined) ReadFrames(ctx context.Context, frames []lbs.Frame) ([][][]byte, error) {
	return lbs.ReadFrames(ctx, p.Backend, frames)
}

// paths returns the service a query runs against on each path: the bare
// backend (frame by frame) and pipelined over it (batched).
func paths(b lbs.Backend) map[string]lbs.Service {
	return map[string]lbs.Service{"frame-by-frame": b.(lbs.Service), "batched": pipelined{b}}
}

// planFrames is the frame sequence of a plan: every (round, file) quota goes
// out as one frame of its count, the wants first and the padding after.
func planFrames(hdr *base.Header) []frame {
	var out []frame
	for ri, round := range hdr.Plan.Rounds {
		for _, f := range round.Fetches {
			out = append(out, frame{ri + 1, f.File, f.Count})
		}
	}
	return out
}

type queryFn func(context.Context, lbs.Service, geom.Point, geom.Point) (*base.Result, error)

// TestFrameShapeIsAFunctionOfThePlan runs every plan-following scheme over
// endpoint pairs chosen to differ in everything a query could leak — same
// region, adjacent nodes, opposite corners, and for the sampled-plan schemes
// a pair that overflows the plan — and holds the recorded frame sequence to
// the one computed from the header's plan alone: one frame per quota.
func TestFrameShapeIsAFunctionOfThePlan(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.1)
	n := graph.NodeID(g.NumNodes())
	lo, hi := graph.NodeID(0), graph.NodeID(0) // opposite corners of the map
	for v := graph.NodeID(0); v < n; v++ {
		if p := g.Point(v); p.X+p.Y < g.Point(lo).X+g.Point(lo).Y {
			lo = v
		} else if p.X+p.Y > g.Point(hi).X+g.Point(hi).Y {
			hi = v
		}
	}
	pairs := [][2]graph.NodeID{
		{5, 5},                // s == t
		{5, g.Adj(5)[0].To},   // adjacent
		{lo, g.Adj(lo)[0].To}, // adjacent, in a corner region
		{lo, hi}, {hi, lo},    // opposite corners
		{0, n - 1}, {n / 2, n / 3}, {n / 7, n - n/7}, {n / 3, n/3 + 1},
	}

	piStar := base.Config{Scheme: base.PIStar, ClusterPages: 2}
	// Plans derived from one sampled query with no margin: overflow is common.
	sampled := base.Config{DeriveQueries: 1, SafetyMargin: 1}

	for _, sc := range []struct {
		name        string
		build       func() (*lbs.Database, error)
		query       queryFn
		sampledPlan bool
		// pinned is the sequence recorded with this recorder on this network
		// and these options once every quota went out as one frame (before,
		// each want and each region-sized run of padding was a frame: CI sent
		// its Fd quota as 9 one-page frames, PI its two regions as two).
		pinned []frame
	}{
		{name: "CI", build: func() (*lbs.Database, error) { return ci.Build(g, base.Config{}) }, query: ci.Query,
			pinned: []frame{{1, "Fl", 1}, {2, "Fi", 1}, {3, "Fd", 9}}},
		{name: "PI", build: func() (*lbs.Database, error) { return pi.Build(g, base.Config{}) }, query: pi.Query,
			pinned: []frame{{1, "Fl", 1}, {2, "Fi", 3}, {2, "Fd", 2}}},
		{name: "PI*", build: func() (*lbs.Database, error) { return pi.Build(g, piStar) }, query: pi.Query},
		{name: "HY", build: func() (*lbs.Database, error) { return hy.Build(g, base.Config{}) }, query: hy.Query},
		{name: "LM", build: func() (*lbs.Database, error) { return lm.Build(g, sampled) }, query: lm.Query, sampledPlan: true},
		{name: "AF", build: func() (*lbs.Database, error) { return af.Build(g, sampled) }, query: af.Query, sampledPlan: true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			db, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			srv, err := lbs.NewServer(db, costmodel.Default(), nil)
			if err != nil {
				t.Fatal(err)
			}
			hdr, err := base.DecodeHeader(db.Header)
			if err != nil {
				t.Fatal(err)
			}
			want := planFrames(hdr)
			if sc.pinned != nil && !slices.Equal(want, sc.pinned) {
				t.Fatalf("plan frames changed from the pinned sequence:\n got %v\nwant %v", want, sc.pinned)
			}

			run := func(p [2]graph.NodeID) (err error) {
				rec := &recorder{Server: srv}
				for path, svc := range paths(rec) {
					rec.round, rec.frames = 0, nil
					_, err = sc.query(context.Background(), svc, g.Point(p[0]), g.Point(p[1]))
					if err != nil && !errors.Is(err, base.ErrPlanOverflow) {
						t.Fatalf("pair %v (%s): %v", p, path, err)
					}
					if !slices.Equal(rec.frames, want) {
						t.Errorf("pair %v (%s, err %v) sent frames\n     %v\nwant %v", p, path, err, rec.frames, want)
					}
				}
				return err
			}
			overflowed := false
			for _, p := range pairs {
				overflowed = run(p) != nil || overflowed
			}
			if !sc.sampledPlan {
				if overflowed {
					t.Error("an exact scheme overflowed its plan")
				}
				return
			}
			// The sampled-plan schemes must have been seen overflowing.
			for s := graph.NodeID(0); s < n && !overflowed; s += 7 {
				overflowed = run([2]graph.NodeID{s, n - 1 - s}) != nil
			}
			if !overflowed {
				t.Fatal("no overflowing pair found: the test no longer covers plan overflow")
			}
		})
	}
}
