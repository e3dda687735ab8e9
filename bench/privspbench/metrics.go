package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef is one row of the benchmark's metric catalogue. BENCHMARK.json
// carries name/unit/better (and the bound of end-to-end metrics); layer and
// moves are the prediction table of README.md kept next to the code that
// measures the metric. smoke_test.go holds the two in agreement.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only: the module measured
	Moves  string  // per-layer only: end-to-end metric @ workload it should move
}

// endToEnd lists what a user of the system sees. Every workload reports
// all of them with -trace 0. The bounds of the four timings follow the
// spread ten runs show on the 2-core shared sandbox (README.md): runs that
// fall into a slow phase of the machine read 20-30 % worse, all at once.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "paper_response_s", Unit: "s", Better: "lower", Bound: 0.01},
	{Name: "db_mb", Unit: "MB", Better: "lower", Bound: 0.01},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// failShare is recorded and compared (exactly) by the harness but is not a
// BENCHMARK.json metric: the driver's contract forbids metrics that read 0
// and takes failures from the result line's attempted/failed instead.
var failShare = metricDef{Name: "fail_share", Unit: "ratio", Better: "lower", Bound: 0}

// schemeNames are the schemes of the scheme micro-pass, in catalogue order.
var schemeNames = []string{"ci", "pi", "hy", "lm", "af"}

// perLayer lists the single-layer metrics every workload reports with
// -trace 1.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	const (
		pi    = "pi_xorpir_closed"
		ci    = "ci_plain_closed"
		mix   = "mix_xorpir_open"
		fl    = "ci_fleet_closed"
		noneP = "none @ " + ci
	)
	m := func(name, unit, better, layer, moves string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Layer: layer, Moves: moves}
	}
	kernel := "query_p50_ms, throughput_qps, cpu_ms_per_query @ " + pi + "; " + noneP
	defs := []metricDef{
		// pir: micro-pass on PI's Fi (large) and LM's Fd (small).
		m("pir.scan_k1_ms", "ms", "lower", "pir", kernel),
		m("pir.scan_k8_ms", "ms", "lower", "pir", kernel),
		m("pir.scan_k1_gbps", "GB/s", "higher", "pir", kernel),
		m("pir.scan_k8_gbps", "GB/s", "higher", "pir", kernel),
		m("pir.mem_read_gbps", "GB/s", "higher", "pir", "the roofline; no end-to-end metric"),
		m("pir.scan_k1_roofline_share", "ratio", "higher", "pir", kernel),
		m("pir.share_answer_ms", "ms", "lower", "pir", "query_p50_ms, cpu_ms_per_query @ "+fl),
		m("pir.small_scan_us", "us", "lower", "pir", "query_p50_ms @ "+mix),
		m("pir.plain_read_us", "us", "lower", "pir", "query_p50_ms @ "+ci),
		m("pir.scan_allocs", "count", "lower", "pir", "cpu_ms_per_query @ "+pi),
		m("pir.arena_mb", "MB", "lower", "pir", "rss_mb @ "+pi+", "+mix+", "+fl),
		m("pir.scans_per_query", "count", "lower", "pir", "cpu_ms_per_query @ "+pi+", "+mix),
		m("pir.pages_scanned_per_query", "count", "lower", "pir", "cpu_ms_per_query @ "+pi+", "+mix),

		// lbs: direct lbs.Server.ReadPagesInto, no wire.
		m("lbs.read_plain_us", "us", "lower", "lbs", "query_p50_ms @ "+ci),
		m("lbs.sched_lone_overhead_us", "us", "lower", "lbs", "query_p50_ms @ "+pi+" (must stay near 0)"),
		m("lbs.merge8_scans_per_fetch", "ratio", "lower", "lbs", "throughput_qps @ "+mix),
		m("lbs.merge8_fetch_ms", "ms", "lower", "lbs", "query_p50_ms @ "+mix),
		m("lbs.scans_per_fetch", "ratio", "lower", "lbs", "query_p50_ms @ "+mix+"; none @ "+pi),
		m("lbs.pool_wait_ms", "ms", "lower", "lbs", "query_p50_ms @ "+mix+"; none @ "+pi),
		m("lbs.flush_lone_share", "ratio", "higher", "lbs", "query_p50_ms @ "+mix),
		m("lbs.flush_chain_share", "ratio", "higher", "lbs", "query_p50_ms @ "+mix),
		m("lbs.flush_window_share", "ratio", "lower", "lbs", "query_p50_ms @ "+mix),
		m("lbs.flush_other_share", "ratio", "lower", "lbs", "query_p50_ms @ "+mix),

		// wire: codecs on a bytes.Buffer, plus registry deltas.
		m("wire.fetch_codec_ns", "ns", "lower", "wire", "query_p50_ms @ "+ci),
		m("wire.pages_codec_ns", "ns", "lower", "wire", "query_p50_ms @ "+ci),
		m("wire.frame_rw_ns", "ns", "lower", "wire", "query_p50_ms, throughput_qps @ "+ci),
		m("wire.bytes_up_per_query", "count", "lower", "wire", "query_p50_ms @ "+fl),
		m("wire.bytes_down_per_query", "count", "lower", "wire", "query_p50_ms @ "+ci),
		m("wire.frames_per_query", "count", "lower", "wire", "query_p50_ms, throughput_qps @ "+ci+", "+mix),
		m("wire.residual_ms", "ms", "lower", "wire", "query_p50_ms @ "+ci+", "+mix),

		// client / server: loopback daemon on plain stores, plus registry deltas.
		m("client.connect_ms", "ms", "lower", "client", "setup_s (all)"),
		m("client.fetch_rtt_us", "us", "lower", "client", "query_p50_ms, throughput_qps @ "+ci),
		m("client.begin_end_us", "us", "lower", "client", "query_p50_ms @ "+ci),
		m("client.roundtrips_per_query", "count", "lower", "client", "query_p50_ms @ "+ci+", "+mix),
		m("client.retries_per_query", "count", "lower", "client", "query_p50_ms @ "+mix),
		m("client.header_ms", "ms", "lower", "client", "query_p50_ms @ "+ci),
		m("client.round_ms", "ms", "lower", "client", "query_p50_ms @ "+ci),
		m("client.fetch_ms", "ms", "lower", "client", "query_p50_ms (all)"),
		m("client.end_ms", "ms", "lower", "client", "query_p50_ms @ "+ci),
		m("server.query_ms", "ms", "lower", "server", "query_p50_ms (all)"),
		m("server.scan_ms", "ms", "lower", "server", "query_p50_ms @ "+pi+"; "+noneP),
		m("server.encode_ms", "ms", "lower", "server", "query_p50_ms @ "+ci),
		m("server.fetch_batch_pages", "count", "higher", "server", "query_p50_ms @ "+ci),
		m("server.shed_share", "ratio", "lower", "server", "throughput_qps @ "+mix),
	}
	// scheme: in-process privsp.Serve on plain stores.
	for _, s := range schemeNames {
		p := "scheme." + s + "."
		compute := "query_p50_ms, cpu_ms_per_query @ " + ci
		switch s {
		case "pi":
			compute = "query_p50_ms @ " + pi
		case "lm", "af":
			compute = "query_p50_ms, cpu_ms_per_query @ " + mix
		case "hy":
			compute = "no workload hosts HY; covered here only"
		}
		defs = append(defs,
			m(p+"compute_ms", "ms", "lower", "scheme", compute),
			m(p+"build_s", "s", "lower", "scheme", "setup_s"),
			m(p+"db_mb", "MB", "lower", "scheme", "db_mb"),
			m(p+"rounds", "count", "lower", "scheme", "query_p50_ms, paper_response_s"),
			m(p+"pir_pages", "count", "lower", "scheme", "paper_response_s, query_p50_ms"),
			m(p+"paper_response_s", "s", "lower", "scheme", "paper_response_s"),
			// Wholly simulated (Table 2 cost model), so the same on every run:
			// the unit says so, lest it be read as a measured time.
			m(p+"paper_pir_s", "sim_s", "lower", "scheme", "paper_response_s"),
			m(p+"paper_comm_s", "sim_s", "lower", "scheme", "paper_response_s"),
			m(p+"fail_share", "ratio", "lower", "scheme", "failed/attempted"),
		)
	}
	defs = append(defs,
		m("scheme.self_ms", "ms", "lower", "scheme", "query_p50_ms, cpu_ms_per_query @ "+ci+", "+mix),

		// fleet: non-zero on ci_fleet_closed only.
		m("fleet.fanout_ms", "ms", "lower", "fleet", "query_p50_ms @ "+fl+"; none elsewhere"),
		m("fleet.fanouts_per_query", "count", "lower", "fleet", "query_p50_ms @ "+fl),
		m("fleet.selector_bytes_per_query", "count", "lower", "fleet", "cpu_ms_per_query @ "+fl),
		m("fleet.replica_scan_ms", "ms", "lower", "fleet", "query_p50_ms, cpu_ms_per_query @ "+fl),
		m("fleet.degraded_share", "ratio", "lower", "fleet", "must stay 0 @ "+fl),

		// pagefile: the PI container on disk.
		m("pagefile.save_ms", "ms", "lower", "pagefile", "no end-to-end metric yet (.psdb serving)"),
		m("pagefile.open_verify_ms", "ms", "lower", "pagefile", "no end-to-end metric yet"),
		m("pagefile.open_noverify_ms", "ms", "lower", "pagefile", "no end-to-end metric yet"),
		m("pagefile.page_hit_us", "us", "lower", "pagefile", "no end-to-end metric yet"),
		m("pagefile.page_miss_us", "us", "lower", "pagefile", "no end-to-end metric yet"),

		m("telemetry.scrape_ms", "ms", "lower", "telemetry", "none (off the query path)"),

		// load: the generator's own view of the untraced window.
		m("load.query_p95_ms", "ms", "lower", "load", "tail; promoted to end-to-end on >=4 cores"),
		m("load.query_p99_ms", "ms", "lower", "load", "tail; promoted to end-to-end on >=4 cores"),
		m("load.max_lateness_ms", "ms", "lower", "load", "validity of "+mix),
		m("load.inflight_mean", "count", "lower", "load", "query_p50_ms @ "+mix),
		m("load.samples", "count", "higher", "load", "none"),
		m("load.segment_spread_share", "ratio", "lower", "load", "steadiness of query_p50_ms"),
		m("load.screened_pair_share", "ratio", "lower", "load", "AF/LM plan overflow kept out of "+mix),

		m("trace.overhead_share", "ratio", "lower", "trace", "none (must stay < 0.10)"),
		m("trace.budget_gap_share", "ratio", "lower", "trace", "none (must stay < 0.02)"),
	)
	return defs
}

// values maps metric name to measured value.
type values map[string]float64

// checkComplete reports the catalogue names missing from v or not finite,
// and the names in v the catalogue does not know.
func checkComplete(defs []metricDef, v values) error {
	var bad []string
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		x, ok := v[d.Name]
		if !ok {
			bad = append(bad, d.Name+" missing")
		} else if math.IsNaN(x) || math.IsInf(x, 0) {
			bad = append(bad, fmt.Sprintf("%s = %v", d.Name, x))
		}
	}
	for name := range v {
		if !known[name] {
			bad = append(bad, name+" not in the catalogue")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics: %s", strings.Join(bad, "; "))
	}
	return nil
}

// median returns the median of xs (NaN when empty). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b with 0 for an empty base, so counters that never moved on a
// workload (no scheduler on plain stores, no fleet) read 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
