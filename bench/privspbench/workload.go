package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/privsp"
)

// workload is one traffic mix. Every option of the daemon stays at its
// default: the benchmark measures the defaults, it does not tune them.
type workload struct {
	Name    string
	Why     string
	Schemes []privsp.Scheme // hosted databases, one connection each in the open loop
	XORPIR  bool            // pir.NewXORPIR stores instead of pir.Plain
	Fleet   bool            // two ReplicaRole daemons behind privsp.DialFleet
	Clients int             // closed loop: client goroutines, one connection each
	Rate    float64         // open loop: arrivals per second over all schemes
}

var workloads = []workload{
	{
		Name:    "ci_plain_closed",
		Why:     "scan layer idle: ~54 one-page round trips plus CI's client-side decode and search are the whole query; a kernel change must not move it",
		Schemes: []privsp.Scheme{privsp.CI}, Clients: 2,
	},
	{
		Name:    "pi_xorpir_closed",
		Why:     "Fi is a 46 MB XOR-PIR arena: the linear scan is nearly all of the query, scheduler on its lone path; kernel and scan-bytes work shows here only",
		Schemes: []privsp.Scheme{privsp.PI}, XORPIR: true, Clients: 1,
	},
	{
		Name:    "mix_xorpir_open",
		Why:     "LM and AF on XOR-PIR under a seeded open-loop schedule at 30 queries/s: arrivals overlap, so pool wait, scheduler merges and multiplexing see a queue",
		Schemes: []privsp.Scheme{privsp.LM, privsp.AF}, XORPIR: true, Rate: 30,
	},
	{
		Name:    "ci_fleet_closed",
		Why:     "CI again, on two share-answering replicas behind DialFleet: the difference to ci_plain_closed is the fleet layer and pir.AnswerShares",
		Schemes: []privsp.Scheme{privsp.CI}, XORPIR: true, Fleet: true, Clients: 2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) open() bool { return w.Rate > 0 }

// conns is the scheme behind each client connection: one connection per
// hosted database in the open loop (queries multiplex on it), one per
// client goroutine in a closed loop.
func (w workload) conns() []privsp.Scheme {
	if w.open() {
		return w.Schemes
	}
	conns := make([]privsp.Scheme, w.Clients)
	for i := range conns {
		conns[i] = w.Schemes[0]
	}
	return conns
}

// sizes are the knobs -smoke shrinks; everything else is fixed.
type sizes struct {
	Scale     float64 // Oldenburg scale; 1.0 is the paper's Table 1 network
	Pool      int     // (src,dst) pairs drawn from -seed
	Warmup    int     // warm-up queries per client or connection
	SetupReps int     // set-ups timed with -trace 0; the median is reported
	MicroDiv  int     // divisor of every micro-pass iteration count
	SchemeQ   int     // pairs of the scheme micro-pass
}

const (
	netSeed    = 1   // network and build seed: fixed, never -seed
	slices     = 5   // equal parts of a window whose medians query_p50_ms compares
	maxLateMs  = 250 // open loop: a generator later than this invalidates the run
	maxBacklog = 8   // open loop: so do more queries in flight at the last arrival
)

func fullSizes() sizes {
	return sizes{Scale: 1.0, Pool: 1024, Warmup: 50, SetupReps: 3, MicroDiv: 1, SchemeQ: 100}
}

func smokeSizes() sizes {
	s := fullSizes()
	s.Scale, s.Pool, s.Warmup, s.SetupReps, s.MicroDiv, s.SchemeQ = 0.1, 64, 3, 1, 20, 10
	return s
}

// pair is one query input with its reference answer.
type pair struct {
	Src, Dst privsp.NodeID
	Cost     float64 // graph.ShortestPath, computed in set-up
}

// drawPool draws n connected (src,dst) pairs from rng and computes their
// Dijkstra costs — the oracle every answer is checked against.
func drawPool(net0 *privsp.Network, rng *rand.Rand, n int) []pair {
	pool := make([]pair, 0, n)
	nodes := net0.NumNodes()
	for len(pool) < n {
		s, t := privsp.NodeID(rng.Intn(nodes)), privsp.NodeID(rng.Intn(nodes))
		if s == t {
			continue
		}
		cost := graph.ShortestPath(net0.G, s, t).Cost
		if math.IsInf(cost, 0) {
			continue
		}
		pool = append(pool, pair{Src: s, Dst: t, Cost: cost})
	}
	return pool
}

func xorStores(f pagefile.Reader) (pir.Store, error) { return pir.NewXORPIR(f) }

// deployment is a hosted workload: daemons on loopback TCP listeners and
// the addresses clients dial.
type deployment struct {
	w       workload
	net     *privsp.Network
	dbs     map[privsp.Scheme]*privsp.Database
	daemons []*server.Server
	addrs   []string
	// services are the dialed query surfaces of the -trace 0 pass, one
	// per w.conns().
	services []service
}

// service is one dialed privsp query surface.
type service interface {
	privsp.PathService
	Close() error
}

// buildAll builds the given schemes over net0 and reports each build time.
func buildAll(net0 *privsp.Network, schemes []privsp.Scheme) (map[privsp.Scheme]*privsp.Database, map[privsp.Scheme]time.Duration, error) {
	dbs := make(map[privsp.Scheme]*privsp.Database, len(schemes))
	took := make(map[privsp.Scheme]time.Duration, len(schemes))
	for _, s := range schemes {
		t0 := time.Now()
		db, err := privsp.Build(net0, privsp.Config{Scheme: s, Seed: netSeed})
		if err != nil {
			return nil, nil, fmt.Errorf("building %s: %w", s, err)
		}
		dbs[s], took[s] = db, time.Since(t0)
	}
	return dbs, took, nil
}

// startDaemon hosts dbs on one in-process daemon behind a real loopback
// listener, every option but the store factory at its default.
func startDaemon(dbs map[privsp.Scheme]*privsp.Database, schemes []privsp.Scheme, opts server.Options) (*server.Server, string, error) {
	srv := server.New(opts)
	for _, s := range schemes {
		if err := srv.Host(string(s), dbs[s].LBS(), costmodel.Default()); err != nil {
			return nil, "", fmt.Errorf("hosting %s: %w", s, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go srv.Serve(ln) // returns when Shutdown closes the listener
	return srv, ln.Addr().String(), nil
}

// deploy hosts the workload's databases on its daemons.
func deploy(w workload, net0 *privsp.Network, dbs map[privsp.Scheme]*privsp.Database) (*deployment, error) {
	d := &deployment{w: w, net: net0, dbs: dbs}
	opts := server.Options{}
	if w.XORPIR {
		opts.Stores = xorStores
	}
	replicas := 1
	if w.Fleet {
		replicas, opts.ReplicaRole = 2, true
	}
	for i := 0; i < replicas; i++ {
		srv, addr, err := startDaemon(dbs, w.Schemes, opts)
		if err != nil {
			d.close()
			return nil, err
		}
		d.daemons, d.addrs = append(d.daemons, srv), append(d.addrs, addr)
	}
	return d, nil
}

// dial opens the library's query surfaces, one per connection of the
// workload.
func (d *deployment) dial() error {
	for _, scheme := range d.w.conns() {
		var (
			svc service
			err error
		)
		if d.w.Fleet {
			svc, err = privsp.DialFleet(d.addrs...)
		} else {
			svc, err = privsp.DialDatabase(d.addrs[0], string(scheme))
		}
		if err != nil {
			return fmt.Errorf("dialing %s: %w", scheme, err)
		}
		d.services = append(d.services, svc)
	}
	return nil
}

// close tears the deployment down and waits for the daemons to stop.
func (d *deployment) close() {
	for _, s := range d.services {
		s.Close()
	}
	d.services = nil
	for _, srv := range d.daemons {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}
	d.daemons = nil
}

// registries are the deployment's telemetry sources: each daemon's own
// registry and the process-default one the client and fleet layers use.
func (d *deployment) registries() []*telemetry.Registry {
	regs := []*telemetry.Registry{telemetry.Default()}
	for _, srv := range d.daemons {
		regs = append(regs, srv.Telemetry())
	}
	return regs
}

// dbBytes is the Table 3 "space" of the hosted databases.
func (d *deployment) dbBytes() int64 {
	var n int64
	for _, s := range d.w.Schemes {
		n += d.dbs[s].TotalBytes()
	}
	return n
}

// arenaBytes is the memory XOR-PIR stores hold beside the page files: one
// word arena per hosted file per daemon. Zero on plain stores.
func (d *deployment) arenaBytes() int64 {
	if !d.w.XORPIR {
		return 0
	}
	var n int64
	for _, s := range d.w.Schemes {
		for _, f := range d.dbs[s].LBS().Files {
			n += int64(f.NumPages()) * int64(f.PageSize())
		}
	}
	return n * int64(len(d.daemons))
}

// setUp is what setup_s times: generate the network, build the workload's
// schemes, host them (store and arena construction) and dial.
func setUp(w workload, sz sizes) (*deployment, time.Duration, error) {
	t0 := time.Now()
	net0 := privsp.Generate(privsp.Oldenburg, sz.Scale, netSeed)
	dbs, _, err := buildAll(net0, w.Schemes)
	if err != nil {
		return nil, 0, err
	}
	d, err := deploy(w, net0, dbs)
	if err != nil {
		return nil, 0, err
	}
	if err := d.dial(); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// request is one scheduled query: which scheme's connection, which pair,
// and (open loop) when it is due.
type request struct {
	Scheme int // index into workload.Schemes
	Seq    int // position in its client's (closed loop) or its scheme's (open loop) sequence
	Pair   pair
	Due    time.Duration // open loop: offset from the window start
}

// runQuery issues one query on the scheme's connection and returns the
// answer's cost and simulated Table 3 response time. Implementations:
// privsp.PathService.ShortestPath (untraced) and the span-recording driver
// of trace.go.
type runQuery func(ctx context.Context, client int, r request) (cost float64, response time.Duration, err error)

// sample is one measured query.
type sample struct {
	Scheme   int
	Seq      int
	Start    time.Duration // offset from the window start (open loop: due time)
	Latency  time.Duration // open loop: from the due time
	Response time.Duration
	Err      error
	Wrong    bool // answered, but the cost differs from Dijkstra's
	Late     time.Duration
	Inflight int
}

func (s sample) ok() bool { return s.Err == nil && !s.Wrong }

// window is one measured run of a workload.
type window struct {
	Samples []sample
	Planned time.Duration // the requested length
	Wall    time.Duration // first send to last completion
	CPU     time.Duration // process user+sys over Wall: client and server together
	Backlog int           // open loop: queries in flight at the last arrival
}

// only returns the window restricted to the samples keep admits.
func (w window) only(keep func(sample) bool) window {
	out := w
	out.Samples = nil
	for _, s := range w.Samples {
		if keep(s) {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// costTolerance is how far an answer may sit from Dijkstra's cost.
const costTolerance = 1e-9

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler samples the process's resident set over a window and reports
// the median: what serving holds. The kernel's own high-water mark
// (getrusage) would report the build's transient memory, and the window's
// maximum follows the collector's timing (it spread 3 to 8 times as wide).
type rssSampler struct {
	stopCh chan struct{}
	done   chan float64
}

// residentMB reads the current resident set from /proc/self/statm.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return resident * float64(os.Getpagesize()) / 1e6
}

func (r *rssSampler) start() {
	r.stopCh, r.done = make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		seen := []float64{residentMB()}
		for {
			select {
			case <-tick.C:
				seen = append(seen, residentMB())
			case <-r.stopCh:
				r.done <- median(seen)
				return
			}
		}
	}()
}

// stop ends the sampling and returns the median resident set in MB.
func (r *rssSampler) stop() float64 {
	if r.stopCh == nil {
		return residentMB()
	}
	close(r.stopCh)
	return <-r.done
}

func issue(ctx context.Context, run runQuery, client int, r request, start time.Time) sample {
	t0 := time.Now()
	cost, resp, err := run(ctx, client, r)
	s := sample{Scheme: r.Scheme, Seq: r.Seq, Start: t0.Sub(start), Latency: time.Since(t0), Response: resp, Err: err}
	if err == nil && math.Abs(cost-r.Pair.Cost) > costTolerance {
		s.Wrong = true
		fmt.Fprintf(os.Stderr, "privspbench: WRONG ANSWER %d->%d: got %.12g, Dijkstra says %.12g\n",
			r.Pair.Src, r.Pair.Dst, cost, r.Pair.Cost)
	}
	return s
}

// runClosed drives a closed loop: each client sends its next query only
// after the previous one completed, cycling through the pool from its own
// offset, for dur after a warm-up outside the window.
func runClosed(ctx context.Context, run runQuery, clients int, pool []pair, warmup int, dur time.Duration, onStart func()) window {
	var (
		ready, done sync.WaitGroup
		start       time.Time // written before startCh closes
		startCh     = make(chan struct{})
		perClient   = make([][]sample, clients)
	)
	for c := 0; c < clients; c++ {
		ready.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			first := c * len(pool) / clients
			seq := 0
			req := func() request {
				r := request{Seq: seq, Pair: pool[(first+seq)%len(pool)]}
				seq++
				return r
			}
			for i := 0; i < warmup; i++ {
				issue(ctx, run, c, req(), time.Now())
			}
			ready.Done()
			<-startCh
			for time.Since(start) < dur {
				perClient[c] = append(perClient[c], issue(ctx, run, c, req(), start))
			}
		}(c)
	}
	ready.Wait()
	onStart()
	cpu0 := cpuTime()
	start = time.Now()
	close(startCh)
	done.Wait()
	win := window{Planned: dur, Wall: time.Since(start), CPU: cpuTime() - cpu0}
	for _, s := range perClient {
		win.Samples = append(win.Samples, s...)
	}
	for i := range win.Samples {
		win.Samples[i].Inflight = clients
	}
	return win
}

// schedule draws the open loop's arrivals: exactly rate*dur of them at
// sorted uniform times — a Poisson process conditioned on its count, so
// every seed offers the same load — with schemes dealt evenly and shuffled.
// admit rejects a (scheme, pair) draw the workload must not carry.
func schedule(rng *rand.Rand, w workload, pool []pair, dur time.Duration, admit func(scheme int, p pair) bool) (reqs []request, screened int) {
	n := int(math.Round(w.Rate * dur.Seconds()))
	if n < len(w.Schemes) {
		n = len(w.Schemes)
	}
	reqs = make([]request, n)
	for i := range reqs {
		reqs[i].Due = time.Duration(rng.Float64() * float64(dur))
		reqs[i].Scheme = i % len(w.Schemes)
	}
	rng.Shuffle(n, func(i, j int) { reqs[i].Scheme, reqs[j].Scheme = reqs[j].Scheme, reqs[i].Scheme })
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Due < reqs[j].Due })
	next := rng.Intn(len(pool))
	seq := make([]int, len(w.Schemes))
	for i := range reqs {
		reqs[i].Seq = seq[reqs[i].Scheme]
		seq[reqs[i].Scheme]++
		for {
			p := pool[next%len(pool)]
			next++
			if admit(reqs[i].Scheme, p) {
				reqs[i].Pair = p
				break
			}
			screened++
		}
	}
	return reqs, screened
}

// runOpen drives an open loop: every request is sent when it is due,
// whatever is still in flight, and its latency is timed from the due time
// so a stall is charged to the queries it delayed.
func runOpen(ctx context.Context, run runQuery, w workload, warm []request, reqs []request, dur time.Duration, onStart func()) window {
	var wg sync.WaitGroup
	for s := range w.Schemes {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, r := range warm {
				if r.Scheme == s {
					issue(ctx, run, s, r, time.Now())
				}
			}
		}(s)
	}
	wg.Wait()
	onStart()

	samples := make([]sample, len(reqs))
	var inflight atomic.Int64
	cpu0, start := cpuTime(), time.Now()
	backlog := 0
	for i, r := range reqs {
		if wait := r.Due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		late := time.Since(start) - r.Due
		backlog = int(inflight.Add(1)) - 1
		wg.Add(1)
		go func(i int, r request, late time.Duration, before int) {
			defer wg.Done()
			s := issue(ctx, run, r.Scheme, r, start)
			inflight.Add(-1)
			s.Start, s.Latency = r.Due, s.Latency+late
			s.Late, s.Inflight = late, before
			samples[i] = s
		}(i, r, late, backlog)
	}
	wg.Wait()
	return window{Samples: samples, Planned: dur, Wall: time.Since(start), CPU: cpuTime() - cpu0, Backlog: backlog}
}

// isPlanOverflow matches the deterministic budget aborts of AF and LM,
// whose padding plan is derived from a sampled workload.
func isPlanOverflow(err error) bool {
	return err != nil && strings.Contains(err.Error(), "budget") && strings.Contains(err.Error(), "exhausted")
}

// screener answers whether a scheme can serve a pair without overflowing
// its sampled plan, by running the query in-process on plain stores. The
// overflow depends on the pair alone, so set-up can keep such pairs out of
// a workload instead of letting them fail inside the window.
type screener struct {
	net  *privsp.Network
	srvs []*privsp.Server // by scheme index
}

func newScreener(net0 *privsp.Network, w workload, dbs map[privsp.Scheme]*privsp.Database) (*screener, error) {
	sc := &screener{net: net0}
	for _, s := range w.Schemes {
		srv, err := privsp.Serve(dbs[s])
		if err != nil {
			return nil, err
		}
		sc.srvs = append(sc.srvs, srv)
	}
	return sc, nil
}

func (sc *screener) admit(scheme int, p pair) bool {
	_, err := sc.srvs[scheme].ShortestPath(context.Background(), sc.net.NodePoint(p.Src), sc.net.NodePoint(p.Dst))
	return !isPlanOverflow(err)
}

// summary condenses a window into the numbers both run modes report.
type summary struct {
	Attempted, Failed, Wrong int
	P50, P95, P99            float64 // ms, successful queries
	SegmentSpread            float64 // (max-min)/median of the per-slice medians
	Throughput               float64 // correct answers per second of wall time
	CPUPerQuery              float64 // ms
	Response                 float64 // s, mean simulated Table 3 response
	MaxLate                  float64 // ms
	InflightMean             float64
	FirstErr                 error
}

// segmentMedian cuts the window into nseg equal slices and returns the
// lowest of the slices' median latencies, and how far the slices lie apart.
// On a shared box other tenants only ever add time, in bursts of seconds:
// the quietest slice is the one that repeats from run to run (over eight PI
// runs the median of the slice medians spread 1.4 times as wide).
func segmentMedian(samples []sample, scheme int, planned time.Duration, nseg int) (best, spread float64) {
	segs := make([][]float64, nseg)
	for _, s := range samples {
		if !s.ok() || s.Scheme != scheme {
			continue
		}
		i := int(int64(s.Start) * int64(nseg) / int64(planned))
		if i >= nseg {
			i = nseg - 1
		}
		segs[i] = append(segs[i], float64(s.Latency)/1e6)
	}
	var meds []float64
	for _, seg := range segs {
		if len(seg) > 0 {
			meds = append(meds, median(seg))
		}
	}
	if len(meds) == 0 {
		return math.NaN(), math.NaN()
	}
	sort.Float64s(meds)
	return meds[0], (meds[len(meds)-1] - meds[0]) / median(meds)
}

func summarize(win window, w workload, nseg int) summary {
	var (
		sum  summary
		lat  []float64
		resp float64
		ok   int
	)
	sum.Attempted = len(win.Samples)
	for _, s := range win.Samples {
		switch {
		case s.Wrong:
			sum.Wrong++
			sum.Failed++
		case s.Err != nil:
			sum.Failed++
			if sum.FirstErr == nil {
				sum.FirstErr = s.Err
			}
		default:
			ok++
			lat = append(lat, float64(s.Latency)/1e6)
			resp += s.Response.Seconds()
		}
		sum.MaxLate = math.Max(sum.MaxLate, float64(s.Late)/1e6)
		sum.InflightMean += float64(s.Inflight)
	}
	sum.InflightMean = ratio(sum.InflightMean, float64(sum.Attempted))
	// With several schemes behind one workload the latency distribution is
	// bimodal and its plain median sits on the gap between the modes, so
	// the p50 is the mean of the per-scheme segment medians.
	var spreads []float64
	for s := range w.Schemes {
		m, sp := segmentMedian(win.Samples, s, win.Planned, nseg)
		sum.P50 += m / float64(len(w.Schemes))
		spreads = append(spreads, sp)
	}
	sum.SegmentSpread = mean(spreads)
	sum.P95, sum.P99 = quantile(lat, 0.95), quantile(lat, 0.99)
	sum.Throughput = float64(ok) / win.Wall.Seconds()
	sum.CPUPerQuery = ratio(float64(win.CPU)/1e6, float64(ok))
	sum.Response = ratio(resp, float64(ok))
	return sum
}

// errWrongAnswer makes the command exit non-zero: an answer differed from
// Dijkstra's, or a scheme's server-observed trace differed between queries.
var errWrongAnswer = errors.New("privspbench: wrong answer")
