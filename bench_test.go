// Benchmarks regenerating every table and figure of the paper's evaluation
// (§7). Each benchmark runs the corresponding experiment end to end — build
// the scheme databases, run the query workload under the Table 2 cost
// simulation — and logs the reproduced table. Absolute numbers shrink with
// the configured scale (REPRO_SCALE, default small); the comparisons the
// paper draws are preserved.
//
//	go test -bench=. -benchmem                   # laptop-scale everything
//	REPRO_SCALE=0.2 go test -bench=Table3 -v     # bigger networks, one table
package repro

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		// Smaller than cmd/experiments' defaults, so the full suite stays
		// in the minutes range.
		r := exp.NewRunner(exp.EnvConfig(0.03, 15))
		var buf bytes.Buffer
		if err := r.Run(id, &buf); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkTable1Networks regenerates Table 1 (the evaluated networks).
func BenchmarkTable1Networks(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig5LMTuning regenerates Figure 5 (LM landmark-count tuning).
func BenchmarkFig5LMTuning(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkTable3Components regenerates Table 3 (response-time components
// of AF, LM, CI, PI on Argentina).
func BenchmarkTable3Components(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig6OBF regenerates Figure 6 (obfuscation baseline vs CI/PI).
func BenchmarkFig6OBF(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7Networks regenerates Figure 7 (four methods, three networks).
func BenchmarkFig7Networks(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8Packing regenerates Figure 8 (packed partitioning ablation).
func BenchmarkFig8Packing(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Compression regenerates Figure 9 (compression ablation).
func BenchmarkFig9Compression(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10HY regenerates Figure 10 (|S_i,j| histogram and HY tuning
// on Denmark).
func BenchmarkFig10HY(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11PIStar regenerates Figure 11 (PI* cluster-size tuning).
func BenchmarkFig11PIStar(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12Large regenerates Figure 12 (CI vs tuned HY vs tuned PI*
// on the three largest networks).
func BenchmarkFig12Large(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkServeDiskVsRAM runs full private CI queries against the same
// database served two ways: from the in-memory build output, and from the
// read-only mapping of a saved .psdb container.
func BenchmarkServeDiskVsRAM(b *testing.B) {
	g := gen.GeneratePreset(gen.Oldenburg, 0.05)
	db, err := ci.Build(g, base.Config{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "ci.psdb")
	if err := pagefile.WriteContainer(path, pagefile.ContainerSpec{Header: db.Header, Files: db.Files}); err != nil {
		b.Fatal(err)
	}
	c, err := pagefile.OpenContainer(path)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	hdr, err := base.DecodeHeader(c.Header)
	if err != nil {
		b.Fatal(err)
	}
	files := make([]pagefile.Reader, len(c.Files))
	for i, f := range c.Files {
		files[i] = f
	}
	variants := []struct {
		name string
		db   *lbs.Database
	}{
		{"ram", db},
		{"psdb", hdr.Database(files...)},
	}
	src, dst := g.Point(0), g.Point(graph.NodeID(g.NumNodes()-1))
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			srv, err := lbs.NewServer(v.db, costmodel.Default(), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ci.Query(context.Background(), srv, src, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- extension ablations (the paper's §8 future-work directions) ---

// BenchmarkExtensionCompactData regenerates the ext-compact table: database
// size with and without the lossless region-record compression, for CI and
// PI.
func BenchmarkExtensionCompactData(b *testing.B) { runExperiment(b, "ext") }
