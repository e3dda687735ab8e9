package exp

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/pi"
)

// Extensions evaluates the compact lossless region-data layout, one of the
// paper's §8 future-work directions. Not a paper figure — an extension
// study, reported alongside the reproduction.
func (r *Runner) Extensions() (*Table, error) {
	g := r.Network(gen.Argentina)

	compact := &Table{ID: "ext-compact", Title: "Compact region data (Argentina): lossless size reduction", Header: []string{
		"scheme", "plain (MB)", "compact (MB)", "ratio"}}
	for _, scheme := range []string{"CI", "PI"} {
		var plainB, compactB int64
		for _, c := range []bool{false, true} {
			var bytes int64
			if scheme == "CI" {
				opt := ci.DefaultOptions()
				opt.CompactData = c
				db, err := ci.Build(g, opt)
				if err != nil {
					return nil, err
				}
				bytes = db.TotalBytes()
			} else {
				opt := pi.DefaultOptions()
				opt.CompactData = c
				db, err := pi.Build(g, opt)
				if err != nil {
					return nil, err
				}
				bytes = db.TotalBytes()
			}
			if c {
				compactB = bytes
			} else {
				plainB = bytes
			}
		}
		compact.AddRow(scheme, MB(plainB), MB(compactB),
			fmt.Sprintf("%.2f", float64(compactB)/float64(plainB)))
	}
	compact.Notes = append(compact.Notes,
		"identical query answers (lossless); smaller records also mean fewer regions and index pairs")
	return compact, nil
}
