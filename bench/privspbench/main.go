// Command privspbench is the repository's benchmark (BENCHMARK.json): four
// workloads over the paper's smallest Table 1 network at paper size, each
// hosted by an in-process daemon on a real loopback TCP listener with every
// option at its default, every answer checked against Dijkstra while it is
// timed. See README.md in this directory for the workloads, the metric
// definitions and the layer-to-end-to-end prediction table.
//
//	go run ./bench/privspbench -seed 1            # all workloads, both passes, one JSON record
//	go run ./bench/privspbench -workload pi_xorpir_closed -seed 3 -seconds 10 -trace 0
//	go run ./bench/privspbench -compare A.json B.json
//	go run ./bench/privspbench -smoke             # scale 0.1, a twentieth of the work
//
// With -workload the process runs that one workload and prints, as its last
// line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// Without it the harness re-executes itself once per workload and pass, so
// peak RSS, CPU time and the process-global client registry belong to one
// workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/telemetry"
	"repro/privsp"
)

const (
	defaultSeconds = 10.0 // BENCHMARK.json run_seconds
	outDir         = ".bench_build/privspbench"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed    = flag.Int64("seed", 1, "seed of the pair pool, the scheme draws and the arrival schedule (network and build seed stay 1)")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		smoke   = flag.Bool("smoke", false, "Oldenburg scale 0.1 and a twentieth of the work: guards the harness, measures nothing")
		compare = flag.Bool("compare", false, "compare two records: -compare A.json B.json")
		out     = flag.String("out", "", "all-workloads mode: where the JSON record goes (default "+outDir+"/record_seed<N>.json)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *smoke, *compare, *out); err != nil {
		fmt.Fprintln(os.Stderr, "privspbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, smoke, compare bool, out string) error {
	if compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two record files")
		}
		return compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive length", seconds)
	}
	if name == "" {
		return runAll(seed, seconds, smoke, out)
	}
	sz := fullSizes()
	if smoke {
		sz = smokeSizes()
		seconds = math.Min(seconds, defaultSeconds) / 20
	} else if runtime.NumCPU() < 2 {
		// BENCH_8/9 were taken on one CPU and show noise where scaling
		// should be; a one-core run measures the scheduler of the OS.
		return errors.New("refusing to measure on 1 core (-smoke is exempt)")
	}
	dur := time.Duration(seconds * float64(time.Second))
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	runPass := runEndToEnd
	if trace == 1 {
		runPass = runTraced
	}
	res, err := runPass(w, seed, dur, sz)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if !res.Correct {
		return errWrongAnswer
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports; its JSON form is the last line
// of the child's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload string
	traced   bool
	invalid  string   // why an open-loop run does not count, or ""
	order    []string // catalogue order, for printing
}

func newResult(w workload, traced bool, defs []metricDef, v values) (*result, error) {
	if err := checkComplete(defs, v); err != nil {
		return nil, err
	}
	r := &result{Correct: true, Metrics: map[string]metricValue{}, workload: w.Name, traced: traced}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
		r.order = append(r.order, d.Name)
	}
	return r, nil
}

// count folds a window's tallies into the result.
func (r *result) count(s summary) {
	r.Attempted += s.Attempted
	r.Failed += s.Failed
	if s.Wrong > 0 {
		r.Correct = false
	}
	if s.FirstErr != nil {
		fmt.Fprintf(os.Stderr, "privspbench: %s: %d of %d queries failed, first: %v\n", r.workload, s.Failed, s.Attempted, s.FirstErr)
	}
}

// print writes every metric as "name unit value", then the result line.
func (r *result) print(f io.Writer) {
	pass := 0
	if r.traced {
		pass = 1
	}
	fmt.Fprintf(f, "# workload %s trace=%d attempted=%d failed=%d fail_share=%.6g\n",
		r.workload, pass, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	if r.invalid != "" {
		fmt.Fprintf(f, "# INVALID open-loop run: %s\n", r.invalid)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(f, "%s %s %v\n", name, m.Unit, m.Value)
	}
	line, _ := json.Marshal(r) // plain maps and numbers checked finite: cannot fail
	fmt.Fprintf(f, "%s\n", line)
}

// runEndToEnd is the -trace 0 pass: set-up, warm-up and one untraced window.
// Set-up is timed several times and the median reported, so that work a
// later change moves into set-up shows and one slow build does not.
func runEndToEnd(w workload, seed int64, dur time.Duration, sz sizes) (*result, error) {
	var (
		d      *deployment
		setups []float64
	)
	for i := 0; i < sz.SetupReps; i++ {
		if d != nil {
			d.close()
		}
		var (
			took time.Duration
			err  error
		)
		if d, took, err = setUp(w, sz); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.close()
	rng := rand.New(rand.NewSource(seed))
	pool := drawPool(d.net, rng, sz.Pool)
	// Set-up's garbage goes back to the OS first, so rss_mb is what serving
	// holds and the collector starts the window from the live heap.
	debug.FreeOSMemory()
	var rss rssSampler
	win, _, err := measure(d, d.untraced(), rng, pool, dur, sz, rss.start)
	residentMB := rss.stop()
	if err != nil {
		return nil, err
	}
	sum := summarize(win, w, slices)
	res, err := newResult(w, false, endToEnd, values{
		"setup_s":          median(setups),
		"query_p50_ms":     sum.P50,
		"throughput_qps":   sum.Throughput,
		"cpu_ms_per_query": sum.CPUPerQuery,
		"paper_response_s": sum.Response,
		"db_mb":            float64(d.dbBytes()) / 1e6,
		"rss_mb":           residentMB,
	})
	if err != nil {
		return nil, err
	}
	res.count(sum)
	res.invalid = invalidOpenLoop(w, sum, win)
	return res, nil
}

// untraced is the query path a user of the library takes.
func (d *deployment) untraced() runQuery {
	return func(ctx context.Context, cl int, r request) (float64, time.Duration, error) {
		res, err := d.services[cl].ShortestPath(ctx, d.net.NodePoint(r.Pair.Src), d.net.NodePoint(r.Pair.Dst))
		if err != nil {
			return 0, 0, err
		}
		return res.Cost, res.Stats.Response(), nil
	}
}

// measure warms up and runs one window of the workload's loop; onStart runs
// between the two. For the open loop it first draws the schedule,
// keeping plan-overflow pairs out, and also returns the share of draws that
// screening rejected.
func measure(d *deployment, run runQuery, rng *rand.Rand, pool []pair, dur time.Duration, sz sizes, onStart func()) (window, float64, error) {
	ctx := context.Background()
	if !d.w.open() {
		return runClosed(ctx, run, d.w.Clients, pool, sz.Warmup, dur, onStart), 0, nil
	}
	sc, err := newScreener(d.net, d.w, d.dbs)
	if err != nil {
		return window{}, 0, err
	}
	warmDur := time.Duration(float64(sz.Warmup*len(d.w.Schemes)) / d.w.Rate * float64(time.Second))
	warm, _ := schedule(rng, d.w, pool, warmDur, sc.admit)
	reqs, screened := schedule(rng, d.w, pool, dur, sc.admit)
	return runOpen(ctx, run, d.w, warm, reqs, dur, onStart), ratio(float64(screened), float64(screened+len(reqs))), nil
}

// invalidOpenLoop says why an open-loop window must not be compared: the
// generator ran late or the daemon fell behind, so the latencies describe
// a backlog and not the offered rate.
func invalidOpenLoop(w workload, sum summary, win window) string {
	switch {
	case !w.open():
		return ""
	case sum.MaxLate > maxLateMs:
		return fmt.Sprintf("generator ran %.0f ms late (limit %d)", sum.MaxLate, maxLateMs)
	case win.Backlog > maxBacklog:
		return fmt.Sprintf("%d queries in flight at the last arrival (limit %d)", win.Backlog, maxBacklog)
	}
	return ""
}

// runTraced is the -trace 1 pass. It hosts the workload exactly as the
// -trace 0 pass does and measures one window in which every fourth query
// goes through the traced driver: registry deltas and spans give the
// per-layer budget, the untraced rest the tracing overhead. Only then, with
// the daemons gone and the process idle, does it build the remaining
// schemes and run the micro-passes — their arenas would otherwise sit in
// the live heap, slow the collector's pace and flatter the window.
func runTraced(w workload, seed int64, dur time.Duration, sz sizes) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	net0 := privsp.Generate(privsp.Oldenburg, sz.Scale, netSeed)
	dbs, built, err := buildAll(net0, w.Schemes)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pool := drawPool(net0, rng, sz.Pool)
	v := values{}
	sum, win, err := tracedWindow(w, net0, dbs, rng, pool, dur, sz, v)
	if err != nil {
		return nil, err
	}

	var rest []privsp.Scheme
	for _, s := range allSchemes {
		if dbs[s] == nil {
			rest = append(rest, s)
		}
	}
	more, took, err := buildAll(net0, rest)
	if err != nil {
		return nil, err
	}
	for _, s := range rest {
		dbs[s], built[s] = more[s], took[s]
	}
	if err := microPasses(microEnv{net: net0, dbs: dbs, built: built, pool: pool, sz: sz, tmp: tmp}, v); err != nil {
		return nil, err
	}

	res, err := newResult(w, true, perLayer, v)
	if err != nil {
		return nil, err
	}
	res.count(sum)
	res.invalid = invalidOpenLoop(w, sum, win)
	return res, nil
}

// tracedWindow deploys the workload, runs the partly traced window and files
// what it says about each layer in v.
func tracedWindow(w workload, net0 *privsp.Network, dbs map[privsp.Scheme]*privsp.Database, rng *rand.Rand, pool []pair, dur time.Duration, sz sizes, v values) (summary, window, error) {
	fail := func(err error) (summary, window, error) { return summary{}, window{}, err }
	d, err := deploy(w, net0, dbs)
	if err != nil {
		return fail(err)
	}
	defer d.close()
	conns, err := dialTraced(context.Background(), d)
	if err != nil {
		return fail(err)
	}
	defer closeTraced(conns)
	tr := newTracer()
	// One window carries both kinds of query: each client (open loop: each
	// scheme) sends every fourth query through the span recorder and the
	// rest around it, on the same connections, so the two see the same
	// machine and the same queues and their p50s differ by the tracing
	// alone. One in four keeps the spans held in memory small against the
	// heap the -trace 0 pass runs in. The registries are sampled and the
	// warm-up's spans dropped when the window starts.
	isTraced := func(seq int) bool { return seq%4 == 3 }
	var before [][]telemetry.SnapshotRow
	debug.FreeOSMemory()
	win, screened, err := measure(d, tr.run(d, conns, isTraced), rng, pool, dur, sz, func() {
		tr.reset()
		before = regSnapshot(d.registries())
	})
	if err != nil {
		return fail(err)
	}
	delta := regDiff(before, regSnapshot(d.registries()))
	if tr.violation != nil {
		return fail(fmt.Errorf("%w: %v", errWrongAnswer, tr.violation))
	}
	if err := tr.writeJSONL(filepath.Join(outDir, "trace_"+w.Name+".jsonl")); err != nil {
		return fail(err)
	}
	tracedWin := win.only(func(s sample) bool { return isTraced(s.Seq) })
	sum := summarize(win, w, slices)
	// Whole-window medians here, one slice: the lowest of five slice medians
	// reads lower the fewer samples a slice holds, and the traced quarter
	// holds a third as many as the rest.
	tracedP50 := summarize(tracedWin, w, 1).P50
	untracedP50 := summarize(win.only(func(s sample) bool { return !isTraced(s.Seq) }), w, 1).P50

	layerMetrics(v, d, delta, tr.budget(), win, tracedWin)
	v["pir.arena_mb"] = float64(d.arenaBytes()) / 1e6
	v["load.query_p95_ms"], v["load.query_p99_ms"] = sum.P95, sum.P99
	v["load.max_lateness_ms"] = sum.MaxLate
	v["load.inflight_mean"] = sum.InflightMean
	v["load.samples"] = float64(sum.Attempted - sum.Failed)
	v["load.segment_spread_share"] = sum.SegmentSpread
	v["load.screened_pair_share"] = screened
	v["trace.overhead_share"] = tracedP50/untracedP50 - 1
	return sum, win, nil
}
