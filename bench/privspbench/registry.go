package main

import (
	"strings"

	"repro/internal/telemetry"
)

// regDelta is what a set of telemetry registries recorded between two
// snapshots: the harness reads the daemon's and the client's existing
// series from outside instead of adding counters of its own.
type regDelta struct {
	counters map[string]float64 // series key -> increment
	histSum  map[string]float64 // series key -> added raw sum (ns for timings)
	histN    map[string]float64 // series key -> added observations
}

// regSnapshot samples every registry of a deployment.
func regSnapshot(regs []*telemetry.Registry) [][]telemetry.SnapshotRow {
	out := make([][]telemetry.SnapshotRow, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
	}
	return out
}

// regDiff folds after-before over all registries. Series of the same key in
// different registries (two fleet replicas) add up.
func regDiff(before, after [][]telemetry.SnapshotRow) regDelta {
	d := regDelta{counters: map[string]float64{}, histSum: map[string]float64{}, histN: map[string]float64{}}
	for i := range after {
		prev := make(map[string]telemetry.SnapshotRow, len(before[i]))
		for _, row := range before[i] {
			prev[row.Key] = row
		}
		for _, row := range after[i] {
			p := prev[row.Key]
			switch row.Kind {
			case "counter":
				d.counters[row.Key] += float64(row.Counter - p.Counter)
			case "histogram":
				h := row.Hist.Sub(p.Hist)
				d.histSum[row.Key] += float64(h.Sum)
				d.histN[row.Key] += float64(h.Count)
			}
		}
	}
	return d
}

// sumFamily adds every series of one family whose key contains all of the
// given label fragments (e.g. `reason="lone"`).
func sumFamily(m map[string]float64, family string, labels ...string) float64 {
	var sum float64
next:
	for key, v := range m {
		if key != family && !strings.HasPrefix(key, family+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(key, l) {
				continue next
			}
		}
		sum += v
	}
	return sum
}

func (d regDelta) counter(family string, labels ...string) float64 {
	return sumFamily(d.counters, family, labels...)
}

// histMs is the time a timing histogram family accumulated, in ms.
func (d regDelta) histMs(family string) float64 { return sumFamily(d.histSum, family) / 1e6 }

func (d regDelta) histCount(family string) float64 { return sumFamily(d.histN, family) }

// histMean is the mean raw value a histogram family observed.
func (d regDelta) histMean(family string) float64 {
	return ratio(sumFamily(d.histSum, family), sumFamily(d.histN, family))
}
