package exp

import (
	"fmt"

	"repro/internal/gen"
	"repro/privsp"
)

// Extensions evaluates the compact lossless region-data layout, one of the
// paper's §8 future-work directions. Not a paper figure — an extension
// study, reported alongside the reproduction.
func (r *Runner) Extensions() (*Table, error) {
	g := r.Network(gen.Argentina)

	compact := &Table{ID: "ext-compact", Title: "Compact region data (Argentina): lossless size reduction", Header: []string{
		"scheme", "plain (MB)", "compact (MB)", "ratio"}}
	for _, scheme := range []privsp.Scheme{privsp.CI, privsp.PI} {
		plain, err := r.Build(string(scheme), g, privsp.Config{Scheme: scheme})
		if err != nil {
			return nil, err
		}
		small, err := r.Build(string(scheme)+" compact", g, privsp.Config{Scheme: scheme, CompactData: true})
		if err != nil {
			return nil, err
		}
		compact.AddRow(string(scheme), MB(plain.Bytes), MB(small.Bytes),
			fmt.Sprintf("%.2f", float64(small.Bytes)/float64(plain.Bytes)))
	}
	compact.Notes = append(compact.Notes,
		"identical query answers (lossless); smaller records also mean fewer regions and index pairs")
	return compact, nil
}
