package core

import (
	"context"
	"fmt"
	"math/rand"
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
	"repro/internal/scheme/obf"
	"repro/internal/scheme/pi"
)

// executorFor wires a scheme's query function into the game.
func executorFor(q func(geom.Point, geom.Point) (*base.Result, error)) Executor {
	return func(query Query) (View, error) {
		res, err := q(query.S, query.T)
		if err != nil {
			return View{}, err
		}
		return View{Transcript: res.Trace}, nil
	}
}

// serveExec builds an executor from a scheme build result.
func serveExec(t *testing.T, db *lbs.Database, err error, q func(context.Context, lbs.Service, geom.Point, geom.Point) (*base.Result, error)) Executor {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := lbs.NewServer(db, costmodel.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return executorFor(func(s, d geom.Point) (*base.Result, error) { return q(context.Background(), srv, s, d) })
}

// TestTheorem1AcrossAllSchemes is the repository's capstone privacy test:
// the measured distinguishing advantage of the optimal transcript adversary
// is exactly zero for every fixed-plan scheme, on random query pairs,
// including re-executions.
func TestTheorem1AcrossAllSchemes(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.08)

	margin := base.Config{SafetyMargin: 2}

	dbCI, errCI := ci.Build(g, base.Config{})
	dbPI, errPI := pi.Build(g, base.Config{})
	dbPS, errPS := pi.Build(g, base.Config{Scheme: base.PIStar, ClusterPages: 2})
	dbHY, errHY := hy.Build(g, base.Config{})
	dbLM, errLM := lm.Build(g, margin)
	dbAF, errAF := af.Build(g, margin)
	execs := map[string]Executor{
		"CI":  serveExec(t, dbCI, errCI, ci.Query),
		"PI":  serveExec(t, dbPI, errPI, pi.Query),
		"PI*": serveExec(t, dbPS, errPS, pi.Query),
		"HY":  serveExec(t, dbHY, errHY, hy.Query),
		"LM":  serveExec(t, dbLM, errLM, lm.Query),
		"AF":  serveExec(t, dbAF, errAF, af.Query),
	}
	for name, exec := range execs {
		adv, err := MeasureAdvantage(exec, func(i int) geom.Point { return g.Point(graph.NodeID(i)) },
			g.NumNodes(), 6, 4, 99)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if adv != 0 {
			t.Errorf("%s: adversary advantage %.3f, Theorem 1 demands 0", name, adv)
		}
	}
}

// TestObfuscationLosesTheGame shows the contrast the paper draws: the OBF
// baseline's view separates queries almost surely.
func TestObfuscationLosesTheGame(t *testing.T) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.08)
	srv, err := obf.NewServer(g, costmodel.Default(), obf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exec := executorFor(func(s, d geom.Point) (*base.Result, error) { return srv.Query(context.Background(), s, d) })
	adv, err := MeasureAdvantage(exec, func(i int) geom.Point { return g.Point(graph.NodeID(i)) },
		g.NumNodes(), 4, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if adv < 0.5 {
		t.Errorf("OBF advantage %.3f; the obfuscation baseline should be distinguishable", adv)
	}
}

func TestGameMechanics(t *testing.T) {
	// A scheme that leaks the source in its transcript is fully
	// distinguishable.
	leaky := func(q Query) (View, error) {
		return View{Transcript: fmt.Sprintf("visited %v", q.S)}, nil
	}
	game := &Game{Exec: leaky, Rng: rand.New(rand.NewSource(1))}
	adv, err := game.Play(Query{S: geom.Point{X: 1}}, Query{S: geom.Point{X: 2}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if adv < 0.9 {
		t.Errorf("leaky scheme advantage %.3f, want ≈ 1", adv)
	}
	// A constant transcript is perfectly indistinguishable.
	constant := func(Query) (View, error) { return View{Transcript: "same"}, nil }
	game = &Game{Exec: constant, Rng: rand.New(rand.NewSource(2))}
	adv, err = game.Play(Query{S: geom.Point{X: 1}}, Query{S: geom.Point{X: 2}}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if adv > 0.2 {
		t.Errorf("constant scheme advantage %.3f, want ≈ 0 (statistical noise only)", adv)
	}
}
