// Package telemetry is the dependency-free metrics core of the serving
// stack: atomic counters and gauges, lock-cheap log-bucketed latency
// histograms, and a labeled registry with Prometheus text exposition.
//
// The defining constraint is Theorem 1 (Mouratidis & Yiu, VLDB 2012): the
// service's view of a query is a data-independent trace of rounds and
// per-file fetch counts, so every exported metric must be a function of
// that adversary-visible trace (plus wall-clock timing, which the
// adversary also observes). Nothing else may be measured. The registry
// makes this checkable: Snapshot/Delta render the change a query caused as
// deterministic text — with timing-valued fields elided — and the leakage
// test asserts the delta is byte-identical across queries with different
// endpoints.
//
// Hot-path cost: Counter.Add, Gauge.Set and Histogram.Observe are single
// atomic operations on pre-resolved handles — no locks, no maps, no
// allocation (pinned by TestObserveZeroAllocs). Handle lookup (get or
// create) happens once at construction time, never per event. Every handle
// method is nil-receiver-safe, so optional instrumentation costs one
// predictable branch when disabled.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "db", Value: "CI"}. Label
// cardinality is expected to be small and bounded (databases, schemes,
// files, cancel reasons) — never per-user or per-query values.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. The zero value is ready;
// methods on a nil *Counter are no-ops so optional instrumentation needs
// no branches at the call site.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can move both ways. Nil-safe like
// Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc and Dec move the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind discriminates the exposition format of a registered series.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered time series: a metric name plus one label set.
type series struct {
	name   string
	labels []Label
	key    string // name{k="v",...}, the identity within a registry
	kind   metricKind

	counter     *Counter
	counterFunc func() uint64
	gauge       *Gauge
	gaugeFunc   func() float64
	hist        *Histogram
}

// family groups the series of one metric name: Prometheus requires a
// single HELP/TYPE per name, and all series of a name must agree on kind.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds a set of metric families and renders them in Prometheus
// text exposition format. Handles are resolved with get-or-create
// semantics: asking twice for the same name and label set returns the same
// Counter/Gauge/Histogram, so independent layers can share a series
// without coordination. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family          // registration order, for stable output
	byName   map[string]*family //
	byKey    map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}, byKey: map[string]*series{}}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry, used by layers that have no
// per-daemon registry wired in (e.g. the remote client).
func Default() *Registry { return defaultRegistry }

// seriesKey renders the canonical identity of a series. Labels are sorted
// by key so the identity is order-independent.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register resolves (name, labels) to its series, creating family and
// series on first use. Panics on a kind conflict for an existing name —
// that is a programming error, caught by any test that touches the path.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *series {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	key := seriesKey(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", key, kind.promType(), s.kind.promType()))
		}
		return s
	}
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, kind.promType(), f.kind.promType()))
	}
	s := &series{name: name, labels: sorted, key: key, kind: kind}
	f.series = append(f.series, s)
	r.byKey[key] = s
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// CounterFunc registers a counter whose value is sampled from fn at scrape
// time — for monotonic totals another layer already maintains (e.g. the
// PIR stores' scan accounting). fn must be safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	s := r.register(name, help, kindCounterFunc, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.counterFunc = fn
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge sampled from fn at scrape time. fn must be
// safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindGaugeFunc, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.gaugeFunc = fn
}

// Histogram returns the histogram for (name, labels), creating it on first
// use with the given options. Options are fixed by the first registration.
func (r *Registry) Histogram(name, help string, opts HistogramOpts, labels ...Label) *Histogram {
	s := r.register(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = newHistogram(opts)
	}
	return s.hist
}

// snapshotSeries lists the registry's series in deterministic order under
// the lock, then samples outside it (funcs may take other locks).
func (r *Registry) snapshotSeries() []*series {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*series, 0, len(r.byKey))
	for _, f := range r.families {
		out = append(out, f.series...)
	}
	return out
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): HELP and TYPE lines per family, then
// one sample line per series — histograms expand to cumulative le-labeled
// buckets (non-empty ones plus +Inf), _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		r.mu.Lock()
		series := append([]*series(nil), f.series...)
		r.mu.Unlock()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind.promType())
		for _, s := range series {
			switch s.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s %d\n", s.key, s.counter.Value())
			case kindCounterFunc:
				fmt.Fprintf(&b, "%s %d\n", s.key, s.counterFunc())
			case kindGauge:
				fmt.Fprintf(&b, "%s %d\n", s.key, s.gauge.Value())
			case kindGaugeFunc:
				fmt.Fprintf(&b, "%s %s\n", s.key, formatFloat(s.gaugeFunc()))
			case kindHistogram:
				writePromHistogram(&b, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromHistogram renders one histogram series: cumulative buckets at
// the non-empty upper bounds plus le="+Inf", then _sum and _count.
func writePromHistogram(b *strings.Builder, s *series) {
	snap := s.hist.Snapshot()
	scale := s.hist.scale
	var cum uint64
	for i, c := range snap.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(b, "%s %d\n", bucketKey(s.name, s.labels, formatFloat(float64(bucketUpper(i))*scale)), cum)
	}
	fmt.Fprintf(b, "%s %d\n", bucketKey(s.name, s.labels, "+Inf"), snap.Count)
	fmt.Fprintf(b, "%s %s\n", seriesKey(s.name+"_sum", s.labels), formatFloat(float64(snap.Sum)*scale))
	fmt.Fprintf(b, "%s %d\n", seriesKey(s.name+"_count", s.labels), snap.Count)
}

// bucketKey renders name_bucket{labels...,le="bound"}.
func bucketKey(name string, labels []Label, le string) string {
	withLE := append(append([]Label(nil), labels...), L("le", le))
	return seriesKey(name+"_bucket", withLE)
}

// formatFloat renders a float without the exponent forms Prometheus
// tooling chokes on for common magnitudes, trimming trailing zeros.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// SnapshotRow is the sampled state of one series.
type SnapshotRow struct {
	Key     string
	Kind    string // "counter", "gauge", "histogram"
	Timing  bool   // histogram holds wall-clock durations
	Counter uint64
	Gauge   float64
	Hist    HistogramSnapshot
}

// Snapshot samples every series. Rows are sorted by key, so two snapshots
// of registries with the same registrations align positionally.
func (r *Registry) Snapshot() []SnapshotRow {
	series := r.snapshotSeries()
	rows := make([]SnapshotRow, 0, len(series))
	for _, s := range series {
		row := SnapshotRow{Key: s.key, Kind: s.kind.promType()}
		switch s.kind {
		case kindCounter:
			row.Counter = s.counter.Value()
		case kindCounterFunc:
			row.Counter = s.counterFunc()
		case kindGauge:
			row.Gauge = float64(s.gauge.Value())
		case kindGaugeFunc:
			row.Gauge = s.gaugeFunc()
		case kindHistogram:
			row.Timing = s.hist.timing
			row.Hist = s.hist.Snapshot()
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return rows
}

// Delta renders what changed between two snapshots of one registry as
// deterministic text, the leakage-test currency: counters and histogram
// counts as increments, gauges as absolute values, non-timing histograms
// with their full bucket deltas and sums (their values are
// adversary-visible quantities like batch sizes), timing histograms with
// their event count only — the durations themselves are wall-clock noise
// and are elided. Series present only in `after` diff against zero.
func Delta(before, after []SnapshotRow) string {
	prev := make(map[string]SnapshotRow, len(before))
	for _, row := range before {
		prev[row.Key] = row
	}
	var b strings.Builder
	for _, row := range after {
		p := prev[row.Key] // zero row when absent
		switch row.Kind {
		case "counter":
			if d := row.Counter - p.Counter; d != 0 {
				fmt.Fprintf(&b, "%s +%d\n", row.Key, d)
			}
		case "gauge":
			if row.Gauge != p.Gauge {
				fmt.Fprintf(&b, "%s =%s\n", row.Key, formatFloat(row.Gauge))
			}
		case "histogram":
			d := row.Hist.Count - p.Hist.Count
			if d == 0 {
				continue
			}
			if row.Timing {
				fmt.Fprintf(&b, "%s +%d observations (timing elided)\n", row.Key, d)
				continue
			}
			fmt.Fprintf(&b, "%s +%d observations sum +%d buckets", row.Key, d, row.Hist.Sum-p.Hist.Sum)
			for i, c := range row.Hist.Buckets {
				var pc uint64
				if i < len(p.Hist.Buckets) {
					pc = p.Hist.Buckets[i]
				}
				if c != pc {
					fmt.Fprintf(&b, " [le %d]+%d", bucketUpper(i), c-pc)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
