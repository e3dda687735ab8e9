package scheme_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/plan"
	"repro/internal/scheme/af"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/hy"
	"repro/internal/scheme/lm"
	"repro/internal/scheme/pi"
)

// callLog is an in-process Backend that records the calls a query makes, as
// the plan they amount to: one round per NextRound, one fetch entry per
// ReadPages call. Over pipelined, it records a batch's frames the same way.
type callLog struct {
	*lbs.Server
	headers int
	seen    plan.Plan
	stray   int // fetches sent before the first round
}

func (c *callLog) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, c) }

func (c *callLog) HeaderBytes(ctx context.Context) ([]byte, error) {
	c.headers++
	return c.Server.HeaderBytes(ctx)
}

func (c *callLog) NextRound(ctx context.Context) error {
	c.seen.Rounds = append(c.seen.Rounds, plan.Round{})
	return c.Server.NextRound(ctx)
}

func (c *callLog) ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error) {
	if n := len(c.seen.Rounds); n == 0 {
		c.stray++
	} else {
		r := &c.seen.Rounds[n-1]
		r.Fetches = append(r.Fetches, plan.Fetch{File: file, Count: len(pages)})
	}
	return c.Server.ReadPages(ctx, file, pages)
}

// planStats is the accounting a plan-conforming query must report under
// model: one RTT plus the transfer for the header, one RTT per round, and
// per page retrieved one PIR fetch against its file's length and one page
// transfer. Client time is measured, so it is left zero.
func planStats(p plan.Plan, files []lbs.FileInfo, headerBytes int, model costmodel.Params) lbs.Stats {
	info := map[string]lbs.FileInfo{}
	for _, f := range files {
		info[f.Name] = f
	}
	st := lbs.Stats{
		Rounds:      len(p.Rounds),
		HeaderBytes: headerBytes,
		Fetches:     map[string]int{},
		Comm:        model.RTT + model.Transfer(headerBytes) + time.Duration(len(p.Rounds))*model.RTT,
	}
	for _, r := range p.Rounds {
		for _, f := range r.Fetches {
			fi := info[f.File]
			st.Fetches[f.File] += f.Count
			st.PIR += time.Duration(f.Count) * model.PIRFetch(fi.NumPages)
			st.Comm += time.Duration(f.Count) * model.Transfer(fi.PageSize)
		}
	}
	return st
}

// TestAccountingIsAFunctionOfThePlan pins the per-query accounting of every
// plan-following scheme over 20 endpoint pairs each, overflowing pairs of
// the sampled-plan schemes included: the calls the backend saw render to the
// plan's canonical transcript, and a query that returns reports that
// transcript and the Table 2 charges computed from the plan, the file table
// and the header size alone.
func TestAccountingIsAFunctionOfThePlan(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.1)
	rng := rand.New(rand.NewSource(39))
	pairs := make([][2]graph.NodeID, 20)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))}
	}
	piStar := base.Config{Scheme: base.PIStar, ClusterPages: 2}
	sampled := base.Config{DeriveQueries: 1, SafetyMargin: 1}
	model := costmodel.Default()

	for _, sc := range []struct {
		name        string
		build       func() (*lbs.Database, error)
		query       queryFn
		sampledPlan bool
	}{
		{"CI", func() (*lbs.Database, error) { return ci.Build(g, base.Config{}) }, ci.Query, false},
		{"PI", func() (*lbs.Database, error) { return pi.Build(g, base.Config{}) }, pi.Query, false},
		{"PI*", func() (*lbs.Database, error) { return pi.Build(g, piStar) }, pi.Query, false},
		{"HY", func() (*lbs.Database, error) { return hy.Build(g, base.Config{}) }, hy.Query, false},
		{"LM", func() (*lbs.Database, error) { return lm.Build(g, sampled) }, lm.Query, true},
		{"AF", func() (*lbs.Database, error) { return af.Build(g, sampled) }, af.Query, true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			db, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			srv, err := lbs.NewServer(db, model, nil)
			if err != nil {
				t.Fatal(err)
			}
			canonical := lbs.CanonicalTrace(db.Plan)
			want := planStats(db.Plan, srv.Files(), len(db.Header), model)
			pairs := pairs
			if sc.sampledPlan {
				// Swap in the first pairs of the (s, n-1-s) family that
				// overflow this plan, so both outcomes are covered.
				pairs = slices.Clone(pairs)
				n, k := graph.NodeID(g.NumNodes()), 0
				for s := graph.NodeID(0); s < n && k < 5; s += 7 {
					p := [2]graph.NodeID{s, n - 1 - s}
					if _, err := sc.query(context.Background(), srv, g.Point(p[0]), g.Point(p[1])); errors.Is(err, base.ErrPlanOverflow) {
						pairs[k], k = p, k+1
					}
				}
			}
			overflowed, answered := 0, 0
			log := &callLog{Server: srv}
			for _, p := range pairs {
				for path, svc := range paths(log) {
					*log = callLog{Server: srv}
					res, err := sc.query(context.Background(), svc, g.Point(p[0]), g.Point(p[1]))
					if err != nil && !errors.Is(err, base.ErrPlanOverflow) {
						t.Fatalf("pair %v (%s): %v", p, path, err)
					}
					if log.headers != 1 || log.stray != 0 {
						t.Errorf("pair %v (%s): %d header downloads, %d fetches before the first round", p, path, log.headers, log.stray)
					}
					if got := lbs.CanonicalTrace(log.seen); got != canonical {
						t.Errorf("pair %v (%s, err %v): backend saw\n%swant\n%s", p, path, err, got, canonical)
					}
					if err != nil {
						overflowed++
						continue
					}
					answered++
					if res.Trace != canonical {
						t.Errorf("pair %v (%s): Result.Trace\n%swant\n%s", p, path, res.Trace, canonical)
					}
					got := res.Stats
					got.Client = 0
					if !reflect.DeepEqual(got, want) {
						t.Errorf("pair %v (%s): stats %+v, want %+v", p, path, got, want)
					}
				}
			}
			if !sc.sampledPlan && overflowed > 0 {
				t.Errorf("an exact scheme overflowed its plan on %d pairs", overflowed)
			}
			if sc.sampledPlan && (overflowed == 0 || answered == 0) {
				t.Errorf("%d pairs overflowed and %d returned: the test must see both", overflowed, answered)
			}
		})
	}
}
