package base_test

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

// event is one entry of a query's deterministic event log: a frame handed
// to the backend (in backend call call, of plan round round), or a step the
// session reports — pages handed to a decoder, a search started.
type event struct {
	kind        string // "frame", "decode" or "search"
	call, round int
}

// orderLog is an in-process service that logs every frame it is handed,
// one backend call per NextRound or ReadPages: the frame-by-frame path.
type orderLog struct {
	*lbs.Server
	events       []event
	calls, round int
}

func (l *orderLog) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, l) }

func (l *orderLog) frame(newRound bool) {
	if newRound {
		l.round++
	}
	l.events = append(l.events, event{"frame", l.calls, l.round})
}

func (l *orderLog) NextRound(ctx context.Context) error {
	l.calls++
	l.frame(true)
	return l.Server.NextRound(ctx)
}

func (l *orderLog) ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error) {
	l.calls++
	l.frame(false)
	return l.Server.ReadPages(ctx, file, pages)
}

// batchLog is orderLog with the batch face: a whole batch is one call.
type batchLog struct{ *orderLog }

func (b batchLog) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, b) }

func (b batchLog) ReadFrames(ctx context.Context, frames []lbs.Frame) ([][][]byte, error) {
	b.calls++
	for _, f := range frames {
		b.frame(f.NewRound)
	}
	return lbs.ReadFrames(ctx, b.Server, frames)
}

type queryFn func(context.Context, lbs.Service, geom.Point, geom.Point) (*base.Result, error)

// TestRoundGoesOutBeforeItIsDecoded holds every scheme to the frame order a
// timing observer must not learn from. For CI, PI and HY, whose last round
// is declared in full before it is sent, every frame of that round —
// padding included — reaches the backend before any of its pages is
// decoded, and the search starts after the plan's last frame; on both the
// batch and the frame-by-frame path. For all five schemes, the frames after
// the query's last decode — the padded tail after the search — reach a
// batching backend in one call.
func TestRoundGoesOutBeforeItIsDecoded(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.1)
	n := graph.NodeID(g.NumNodes())
	pairs := [][2]graph.NodeID{{5, 5}, {5, g.Adj(5)[0].To}, {0, n - 1}, {n / 2, n / 3}, {n / 7, n - n/7}, {n / 3, n/3 + 1}}
	sampled := base.Config{DeriveQueries: 32}

	for _, sc := range []struct {
		name       string
		build      func() (*lbs.Database, error)
		query      queryFn
		wholeRound bool // the last round is declared before it is sent
	}{
		{"CI", func() (*lbs.Database, error) { return ci.Build(g, base.Config{}) }, ci.Query, true},
		{"PI", func() (*lbs.Database, error) { return pi.Build(g, base.Config{}) }, pi.Query, true},
		{"HY", func() (*lbs.Database, error) { return hy.Build(g, base.Config{}) }, hy.Query, true},
		// A low threshold answers most pairs by multi-page subgraph
		// records, whose continuation pages ride in the last round too.
		{"HY-subgraphs", func() (*lbs.Database, error) { return hy.Build(g, base.Config{Threshold: 2}) }, hy.Query, true},
		{"LM", func() (*lbs.Database, error) { return lm.Build(g, sampled) }, lm.Query, false},
		{"AF", func() (*lbs.Database, error) { return af.Build(g, sampled) }, af.Query, false},
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
			last := len(db.Plan.Rounds)
			tails := 0
			for _, p := range pairs {
				for _, batched := range []bool{false, true} {
					log := &orderLog{Server: srv}
					var svc lbs.Service = log
					if batched {
						svc = batchLog{log}
					}
					ctx := base.WithObserver(context.Background(), func(kind string) {
						log.events = append(log.events, event{kind: kind})
					})
					if _, err := sc.query(ctx, svc, g.Point(p[0]), g.Point(p[1])); err != nil && !errors.Is(err, base.ErrPlanOverflow) {
						t.Fatalf("pair %v: %v", p, err)
					}
					ev := log.events
					isFrame := func(e event) bool { return e.kind == "frame" }
					lastFrame := lastIndex(ev, isFrame)
					lastDecode := lastIndex(ev, func(e event) bool { return e.kind == "decode" })

					if sc.wholeRound {
						first := slices.IndexFunc(ev, func(e event) bool { return isFrame(e) && e.round == last })
						if first < 0 {
							t.Fatalf("pair %v (batched %v): no frame of round %d was sent", p, batched, last)
						}
						for i := first; i <= lastFrame; i++ {
							if ev[i].kind == "decode" {
								t.Fatalf("pair %v (batched %v): a page of round %d was decoded before the round's last frame was sent: %v",
									p, batched, last, ev[first:lastFrame+1])
							}
						}
						if search := slices.IndexFunc(ev, func(e event) bool { return e.kind == "search" }); search < lastFrame {
							t.Fatalf("pair %v (batched %v): search started at event %d, before the plan's last frame (%d)", p, batched, search, lastFrame)
						}
					}
					if !batched {
						continue
					}
					var tailCalls []int
					for _, e := range ev[lastDecode+1:] {
						if isFrame(e) && !slices.Contains(tailCalls, e.call) {
							tailCalls = append(tailCalls, e.call)
						}
					}
					if len(tailCalls) > 1 {
						t.Fatalf("pair %v: the tail after the search went out in %d backend calls, want one", p, len(tailCalls))
					}
					tails += len(tailCalls)
				}
			}
			if !sc.wholeRound && tails == 0 {
				t.Fatal("no query left a padded tail: the test no longer covers it")
			}
		})
	}
}

// lastIndex is the index of the last event f accepts, -1 for none.
func lastIndex(ev []event, f func(event) bool) int {
	for i := len(ev) - 1; i >= 0; i-- {
		if f(ev[i]) {
			return i
		}
	}
	return -1
}
