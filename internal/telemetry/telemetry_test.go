package telemetry

import (
	"bufio"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRegistryGetOrCreate: the same (name, labels) resolves to the same
// handle regardless of label order, and distinct label values get distinct
// series.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("q_total", "queries", L("db", "CI"), L("scheme", "CI"))
	b := reg.Counter("q_total", "queries", L("scheme", "CI"), L("db", "CI"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
	c := reg.Counter("q_total", "queries", L("db", "HY"), L("scheme", "HY"))
	if a == c {
		t.Fatal("distinct labels shared a series")
	}
	a.Add(2)
	c.Inc()
	if a.Value() != 2 || c.Value() != 1 {
		t.Fatalf("values %d/%d, want 2/1", a.Value(), c.Value())
	}
}

// TestRegistryKindConflictPanics: re-registering a name under a different
// metric type is a programming error and must fail loudly.
func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

// TestPrometheusTextFormat scrapes a populated registry and checks the
// output is well-formed version 0.0.4 text: HELP/TYPE per family, counters
// and gauges as integer samples, histograms as cumulative le-buckets with
// _sum and _count, every sample line parseable.
func TestPrometheusTextFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("privsp_queries_total", "completed queries", L("db", "CI")).Add(7)
	reg.Gauge("privsp_inflight", "open queries", L("db", "CI")).Set(3)
	reg.GaugeFunc("privsp_pool_busy", "busy workers", func() float64 { return 2 }, L("db", "CI"))
	reg.CounterFunc("privsp_scans_total", "scans", func() uint64 { return 11 }, L("db", "CI"))
	h := reg.Histogram("privsp_query_seconds", "latency", Seconds(), L("db", "CI"))
	h.Observe(1500) // 1.5us
	h.Observe(3_000_000)
	h.Observe(3_000_000)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# HELP privsp_queries_total completed queries",
		"# TYPE privsp_queries_total counter",
		`privsp_queries_total{db="CI"} 7`,
		"# TYPE privsp_inflight gauge",
		`privsp_inflight{db="CI"} 3`,
		`privsp_pool_busy{db="CI"} 2`,
		`privsp_scans_total{db="CI"} 11`,
		"# TYPE privsp_query_seconds histogram",
		`privsp_query_seconds_count{db="CI"} 3`,
		`le="+Inf"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}

	// Structural validity: every non-comment line is "series value"; every
	// histogram's bucket counts are cumulative and end at _count.
	var lastBucket float64 = -1
	var cum uint64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		if strings.HasPrefix(line, "privsp_query_seconds_bucket") {
			le := line[strings.Index(line, `le="`)+4:]
			le = le[:strings.Index(le, `"`)]
			var bound float64
			if le == "+Inf" {
				bound = 1e308
			} else {
				var err error
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("unparseable le %q", le)
				}
			}
			if bound <= lastBucket {
				t.Fatalf("bucket bounds not increasing at %q", line)
			}
			lastBucket = bound
			c, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("unparseable bucket count %q", line)
			}
			if c < cum {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			cum = c
		}
	}
	if cum != 3 {
		t.Fatalf("+Inf bucket = %d, want 3", cum)
	}
}

// TestDeltaDeterminism: the delta of identical activity is byte-identical,
// timing histograms contribute only their counts, and exact histograms
// contribute buckets and sums.
func TestDeltaDeterminism(t *testing.T) {
	run := func() string {
		reg := NewRegistry()
		q := reg.Counter("q_total", "q", L("db", "CI"))
		g := reg.Gauge("inflight", "g", L("db", "CI"))
		lat := reg.Histogram("lat_seconds", "l", Seconds(), L("db", "CI"))
		batch := reg.Histogram("batch_size", "b", HistogramOpts{}, L("db", "CI"))
		before := reg.Snapshot()
		q.Add(3)
		g.Inc()
		g.Dec()
		lat.Observe(int64(1000 + time.Now().Nanosecond()%1000)) // deliberately noisy timing
		batch.Observe(16)
		batch.Observe(4)
		return Delta(before, reg.Snapshot())
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("identical activity produced different deltas:\n%s\nvs\n%s", d1, d2)
	}
	if !strings.Contains(d1, "q_total") || !strings.Contains(d1, "+3") {
		t.Errorf("counter delta missing:\n%s", d1)
	}
	if !strings.Contains(d1, "timing elided") {
		t.Errorf("timing histogram not elided:\n%s", d1)
	}
	if !strings.Contains(d1, "batch_size") || !strings.Contains(d1, "sum +20") {
		t.Errorf("exact histogram buckets missing:\n%s", d1)
	}
	if strings.Contains(d1, "inflight") {
		t.Errorf("settled gauge appears in delta:\n%s", d1)
	}
}
