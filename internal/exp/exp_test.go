package exp

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/scheme/base"
	"repro/privsp"
)

// tinyConfig keeps unit tests fast; the real runs use EnvConfig (env
// tunable) via cmd/experiments and the benchmarks.
func tinyConfig() Config {
	return Config{Scale: 0.02, Queries: 6, Seed: 1}
}

func TestTable1(t *testing.T) {
	r := NewRunner(tinyConfig())
	tab, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 1 has %d rows, want 6", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "Arg.") {
		t.Error("rendered table lacks Argentina")
	}
}

func TestTable3VerifiedWorkload(t *testing.T) {
	r := NewRunner(tinyConfig())
	tab, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 3 has %d rows, want 4 (AF, LM, CI, PI)", len(tab.Rows))
	}
	// Shape check: CI must respond faster than both baselines, PI fastest.
	resp := map[string]string{}
	for _, row := range tab.Rows {
		resp[row[0]] = row[1]
	}
	for _, m := range []string{"AF", "LM", "CI", "PI"} {
		if resp[m] == "" {
			t.Fatalf("missing method %s", m)
		}
	}
}

func TestFig10Histogram(t *testing.T) {
	r := NewRunner(tinyConfig())
	tables, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("Fig10 yields %d tables, want 2", len(tables))
	}
	if len(tables[0].Rows) == 0 {
		t.Error("empty histogram")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	r := NewRunner(tinyConfig())
	if err := r.Run("fig99", &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	cfg := tinyConfig()
	r1 := NewRunner(cfg)
	r2 := NewRunner(cfg)
	g1 := r1.Network(gen.Oldenburg)
	g2 := r2.Network(gen.Oldenburg)
	sv1, err := r1.Build("CI", g1, privsp.Config{Scheme: privsp.CI})
	if err != nil {
		t.Fatal(err)
	}
	sv2, err := r2.Build("CI", g2, privsp.Config{Scheme: privsp.CI})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := r1.RunWorkload(g1, sv1.Query)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r2.RunWorkload(g2, sv2.Query)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated components are fully deterministic (client time is not).
	if a1.PIR != a2.PIR || a1.Comm != a2.Comm || a1.FetchesFd != a2.FetchesFd {
		t.Errorf("workload not deterministic: %+v vs %+v", a1, a2)
	}
}

// TestTimedPairsAreNotDerivationPairs: Runner.Build seeds LM's and AF's
// plan derivation apart from the workload, so the pairs RunWorkload times
// are not the pairs those plans were fitted to. With one seed for both,
// the two samplers draw the same sequence, and every timed pair of a run
// of up to 512 queries is a derivation pair.
func TestTimedPairsAreNotDerivationPairs(t *testing.T) {
	r := NewRunner(Config{Scale: 0.05, Queries: 40, Seed: 1})
	n := r.Network(gen.Oldenburg).NumNodes()
	derived := map[[2]graph.NodeID]bool{}
	for _, pair := range base.SamplePairs(n, 512, r.buildSeed()) { // privsp's LM and AF sample 512
		derived[pair] = true
	}
	shared := 0
	for _, pair := range base.SamplePairs(n, r.Cfg.Queries, r.Cfg.Seed) {
		if derived[pair] {
			shared++
		}
	}
	if shared > r.Cfg.Queries/4 {
		t.Errorf("%d of the %d timed pairs are plan-derivation pairs", shared, r.Cfg.Queries)
	}
}

// TestRunWorkloadRejectsWrongCost: a query whose answer is not Dijkstra's
// fails the workload, and the error names that query.
func TestRunWorkloadRejectsWrongCost(t *testing.T) {
	for name, wrong := range map[string]func(float64) float64{
		"one too long": func(c float64) float64 { return c + 1 },
		"unreachable":  func(float64) float64 { return math.Inf(1) },
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRunner(tinyConfig())
			g := r.Network(gen.Oldenburg)
			const bad = 3
			calls := 0
			_, err := r.RunWorkload(g, func(s, d geom.Point) (*base.Result, error) {
				p := graph.ShortestPath(g, g.NearestNode(s), g.NearestNode(d))
				if math.IsInf(p.Cost, 1) {
					t.Fatalf("query %d: pair unreachable in the oracle", calls)
				}
				res := &base.Result{Cost: p.Cost}
				if calls == bad {
					res.Cost = wrong(p.Cost)
				}
				calls++
				return res, nil
			})
			if err == nil {
				t.Fatal("a wrong cost passed the Dijkstra check")
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("query %d ", bad)) {
				t.Errorf("error %q does not name query %d", err, bad)
			}
			if calls != bad+1 {
				t.Errorf("workload ran %d queries, want it to stop after query %d", calls, bad)
			}
		})
	}
}

func TestScaledSizeLimit(t *testing.T) {
	r := NewRunner(Config{Scale: 1.0, Queries: 1, Seed: 1})
	full := r.ScaledSizeLimit()
	if full < 2_300_000_000 || full > 2_900_000_000 {
		t.Errorf("full-scale limit = %d, want ≈ 2.5 GB", full)
	}
	r2 := NewRunner(Config{Scale: 0.1, Queries: 1, Seed: 1})
	if r2.ScaledSizeLimit() >= full/50 {
		t.Error("scaled limit should shrink quadratically")
	}
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != 11 {
		t.Fatalf("IDs() = %v", ids)
	}
}

func TestExtensionsExperiment(t *testing.T) {
	r := NewRunner(tinyConfig())
	tab, err := r.Extensions()
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "ext-compact" || len(tab.Rows) != 2 {
		t.Fatalf("Extensions yields %s with %d rows, want ext-compact with 2", tab.ID, len(tab.Rows))
	}
}

func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow at any scale")
	}
	r := NewRunner(tinyConfig())
	tab, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	// 6 cluster sizes + the CI reference row.
	if len(tab.Rows) != 7 {
		t.Fatalf("Fig11 rows = %d", len(tab.Rows))
	}
}

func TestFig6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow at any scale")
	}
	r := NewRunner(tinyConfig())
	tab, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// 5 OBF points + 2 references.
	if len(tab.Rows) != 7 {
		t.Fatalf("Fig6 rows = %d", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "#") {
		t.Error("fig6 should render a bar chart")
	}
}

func TestFig12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow at any scale")
	}
	r := NewRunner(tinyConfig())
	tab, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 3 networks x 3 methods
		t.Fatalf("Fig12 rows = %d", len(tab.Rows))
	}
}
