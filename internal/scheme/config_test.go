package scheme_test

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/scheme/af"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/hy"
	"repro/internal/scheme/lm"
	"repro/internal/scheme/pi"
)

// TestBuildRefusesForeignScheme: each scheme package's Build takes a Config
// naming one of its own schemes, or none, and refuses any other scheme
// before it does any work — the refusals below get no graph at all — with
// an error naming the scheme it was handed. Without the check, a PI* config
// reached ci.Build or hy.Build as 2- or 3-page regions that failed late on
// the first region larger than one page. An empty Scheme builds the
// package's own (PI for pi).
func TestBuildRefusesForeignScheme(t *testing.T) {
	all := []base.Scheme{base.CI, base.PI, base.PIStar, base.HY, base.LM, base.AF}
	builds := []struct {
		pkg   string
		build func(*graph.Graph, base.Config) (*lbs.Database, error)
		own   []base.Scheme // the first is what an empty Scheme builds
	}{
		{"ci", ci.Build, []base.Scheme{base.CI}},
		{"pi", pi.Build, []base.Scheme{base.PI, base.PIStar}},
		{"hy", hy.Build, []base.Scheme{base.HY}},
		{"lm", lm.Build, []base.Scheme{base.LM}},
		{"af", af.Build, []base.Scheme{base.AF}},
	}
	g := gen.GeneratePreset(gen.Oldenburg, 0.03)
	for _, b := range builds {
		for _, s := range all {
			if slices.Contains(b.own, s) {
				continue
			}
			t.Run(b.pkg+"/refuses/"+string(s), func(t *testing.T) {
				_, err := b.build(nil, base.Config{Scheme: s, ClusterPages: 3})
				if err == nil || !strings.Contains(err.Error(), `Scheme "`+string(s)+`"`) {
					t.Fatalf("%s.Build(Scheme %s) = %v, want a refusal naming %s", b.pkg, s, err, s)
				}
			})
		}
		for _, s := range append([]base.Scheme{""}, b.own...) {
			t.Run(b.pkg+"/builds/"+cmp.Or(string(s), "empty"), func(t *testing.T) {
				db, err := b.build(g, base.Config{Scheme: s, DeriveQueries: 8})
				if err != nil {
					t.Fatalf("%s.Build(Scheme %q): %v", b.pkg, s, err)
				}
				if want := cmp.Or(s, b.own[0]); db.Scheme != string(want) {
					t.Fatalf("%s.Build(Scheme %q) built %s, want %s", b.pkg, s, db.Scheme, want)
				}
			})
		}
	}
}
