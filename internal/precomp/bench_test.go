package precomp

import (
	"testing"

	"repro/internal/border"
	"repro/internal/gen"
	"repro/internal/kdtree"
)

// BenchmarkCompute is the pre-computation alone on Oldenburg 0.25: the S_i,j
// region sets CI and HY store, and the G_i,j subgraphs PI and HY store. One
// op is one Compute over the whole augmented network.
func BenchmarkCompute(b *testing.B) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.25)
	part, err := kdtree.BuildPacked(g, sizeFn(g), 1024)
	if err != nil {
		b.Fatal(err)
	}
	aug := border.Build(g, part)
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"Sets", Options{Sets: true}},
		{"Subgraphs", Options{Subgraphs: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Compute(aug, part, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
