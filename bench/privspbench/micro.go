package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/privsp"
)

// The micro-passes time calls into the exported functions of single layers,
// from outside, on the same databases the workloads host. They run after
// the workload's daemons are gone, so nothing else competes for the cores.

// microEnv is what the micro-passes share.
type microEnv struct {
	net   *privsp.Network
	dbs   map[privsp.Scheme]*privsp.Database // all of allSchemes
	built map[privsp.Scheme]time.Duration
	pool  []pair
	sz    sizes
	tmp   string // scratch directory inside the checkout
}

var allSchemes = []privsp.Scheme{privsp.CI, privsp.PI, privsp.HY, privsp.LM, privsp.AF}

// iters scales an iteration count by the smoke divisor, never below 3.
func (e microEnv) iters(n int) int { return max(n/e.sz.MicroDiv, 3) }

// timeEach runs f n times and returns each call's duration in ms.
func timeEach(n int, f func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(t0)) / 1e6
	}
	return out, nil
}

// timeLoop runs f n times under one clock and returns the mean call in ns;
// for calls too short to time one by one.
func timeLoop(n int, f func(i int) error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(n), nil
}

func pageBufs(k, pageSize int) [][]byte {
	bufs := make([][]byte, k)
	for i := range bufs {
		bufs[i] = make([]byte, pageSize)
	}
	return bufs
}

// sink keeps the roofline loop's result alive.
var sink uint64

// xorReduce is the roofline the scan kernels are held against: one
// XOR-reduction over words, split across GOMAXPROCS goroutines like the
// parallel kernel splits its segments.
func xorReduce(words []uint64) {
	procs := runtime.GOMAXPROCS(0)
	parts := make([]uint64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			seg := words[p*len(words)/procs : (p+1)*len(words)/procs]
			var a0, a1, a2, a3 uint64
			i := 0
			for ; i+4 <= len(seg); i += 4 {
				a0 ^= seg[i]
				a1 ^= seg[i+1]
				a2 ^= seg[i+2]
				a3 ^= seg[i+3]
			}
			for ; i < len(seg); i++ {
				a0 ^= seg[i]
			}
			parts[p] = a0 ^ a1 ^ a2 ^ a3
		}(p)
	}
	wg.Wait()
	for _, x := range parts {
		sink ^= x
	}
}

// microScan times the scan layer with no wire in front of it, on PI's Fi
// (large) and LM's Fd (small): the pir stores directly, and the same reads
// through lbs.Server.ReadPagesInto — the plain route, the scheduler's lone
// path, and eight callers merging.
func microScan(e microEnv, v values) error {
	ctx := context.Background()
	db := e.dbs[privsp.PI].LBS()
	fi := db.File("Fi")
	fd := e.dbs[privsp.LM].LBS().File("Fd")
	if fi == nil || fd == nil {
		return fmt.Errorf("micro scan: PI has no Fi or LM no Fd")
	}
	x, err := pir.NewXORPIR(fi)
	if err != nil {
		return err
	}
	workers := lbs.WithWorkers(2 * runtime.GOMAXPROCS(0)) // what server.New hosts with
	reg := telemetry.NewRegistry()
	hosted, err := lbs.NewServer(db, costmodel.Default(), xorStores, workers, lbs.WithTelemetry(reg, "PI"))
	if err != nil {
		return err
	}
	arena := fi.NumPages() * fi.PageSize()
	words := make([]uint64, arena/8)
	for i := range words {
		words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	bufs := pageBufs(8, fi.PageSize())
	page := func(i int) int { return (i*7919 + 13) % fi.NumPages() }

	// The direct scan, the same read through the scheduler's lone path and
	// the roofline take turns, so a noisy neighbour slows all three alike
	// and the differences between them stay meaningful.
	n := e.iters(40)
	k1, lone, reduce := make([]float64, n), make([]float64, n), make([]float64, n)
	var ms runtime.MemStats
	var mallocs uint64
	for i := 0; i < n; i++ {
		pages := []int{page(i)}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		if err := x.ReadBatchInto(ctx, pages, bufs[:1]); err != nil {
			return err
		}
		k1[i] = float64(time.Since(t0)) / 1e6
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		t0 = time.Now()
		if err := hosted.ReadPagesInto(ctx, "Fi", pages, bufs[:1]); err != nil {
			return err
		}
		lone[i] = float64(time.Since(t0)) / 1e6
		t0 = time.Now()
		xorReduce(words)
		reduce[i] = float64(time.Since(t0)) / 1e6
	}
	words = nil
	// The kernel reads a page when any of the k uniform selectors picks it,
	// so a pass reads 1-2^-k of the arena, and ReadBatchInto makes two passes
	// (one per logical server). The roofline reads all of it once.
	gbps := func(passes, k int, ms float64) float64 {
		return float64(passes) * float64(arena) * (1 - math.Pow(2, -float64(k))) / (ms / 1e3) / 1e9
	}
	v["pir.scan_k1_ms"] = median(k1)
	v["pir.scan_k1_gbps"] = gbps(2, 1, median(k1))
	v["pir.mem_read_gbps"] = float64(arena) / (median(reduce) / 1e3) / 1e9
	v["pir.scan_k1_roofline_share"] = v["pir.scan_k1_gbps"] / v["pir.mem_read_gbps"]
	v["pir.scan_allocs"] = float64(mallocs) / float64(n)
	v["lbs.sched_lone_overhead_us"] = (median(lone) - median(k1)) * 1e3

	pages8 := make([]int, 8)
	k8, err := timeEach(e.iters(12), func(i int) error {
		for j := range pages8 {
			pages8[j] = page(8*i + j)
		}
		return x.ReadBatchInto(ctx, pages8, bufs)
	})
	if err != nil {
		return err
	}
	v["pir.scan_k8_ms"], v["pir.scan_k8_gbps"] = median(k8), gbps(2, 8, median(k8))
	sels := [][]byte{make([]byte, x.SelectorBytes()), make([]byte, x.SelectorBytes())}
	share, err := timeEach(e.iters(20), func(int) error {
		for _, s := range sels {
			if _, err := rand.Read(s); err != nil {
				return err
			}
		}
		return x.AnswerShares(ctx, sels, bufs[:2])
	})
	if err != nil {
		return err
	}
	v["pir.share_answer_ms"] = median(share)

	small, err := pir.NewXORPIR(fd)
	if err != nil {
		return err
	}
	ns, err := timeLoop(e.iters(4000), func(i int) error {
		return small.ReadBatchInto(ctx, []int{i % fd.NumPages()}, bufs[:1])
	})
	if err != nil {
		return err
	}
	v["pir.small_scan_us"] = ns / 1e3
	plain := pir.NewPlain(fi)
	ns, err = timeLoop(e.iters(200000), func(i int) error {
		return plain.ReadBatchInto(ctx, []int{page(i)}, bufs[:1])
	})
	if err != nil {
		return err
	}
	v["pir.plain_read_us"] = ns / 1e3
	hostedPlain, err := lbs.NewServer(db, costmodel.Default(), nil, workers)
	if err != nil {
		return err
	}
	ns, err = timeLoop(e.iters(200000), func(i int) error {
		return hostedPlain.ReadPagesInto(ctx, "Fi", []int{page(i)}, bufs[:1])
	})
	if err != nil {
		return err
	}
	v["lbs.read_plain_us"] = ns / 1e3

	const callers = 8
	per := e.iters(20)
	before := regSnapshot([]*telemetry.Registry{reg})
	var (
		wg   sync.WaitGroup
		lats = make([][]float64, callers)
		errs = make([]error, callers)
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			own := pageBufs(1, fi.PageSize())
			lats[c], errs[c] = timeEach(per, func(i int) error {
				return hosted.ReadPagesInto(ctx, "Fi", []int{page(c*per + i)}, own)
			})
		}(c)
	}
	wg.Wait()
	d := regDiff(before, regSnapshot([]*telemetry.Registry{reg}))
	var all []float64
	for c := range lats {
		if errs[c] != nil {
			return errs[c]
		}
		all = append(all, lats[c]...)
	}
	v["lbs.merge8_scans_per_fetch"] = ratio(d.counter("privsp_scan_sched_scans_total"), d.counter("privsp_scan_sched_fetches_total"))
	v["lbs.merge8_fetch_ms"] = median(all)
	return nil
}

// microWire times the codecs of the hot path on a bytes.Buffer.
func microWire(e microEnv, v values) error {
	enc := pagefile.NewEnc(64)
	fetch := wire.Fetch{File: "Fi", Pages: []uint32{4711}}
	var got wire.Fetch
	ns, err := timeLoop(e.iters(400000), func(int) error {
		enc.Reset()
		return got.DecodeInto(fetch.EncodeTo(enc))
	})
	if err != nil {
		return err
	}
	v["wire.fetch_codec_ns"] = ns

	pages := wire.Pages{Pages: pageBufs(8, pagefile.DefaultPageSize)}
	penc := pagefile.NewEnc(9 * pagefile.DefaultPageSize)
	ns, err = timeLoop(e.iters(40000), func(int) error {
		penc.Reset()
		_, err := wire.DecodePages(pages.EncodeTo(penc))
		return err
	})
	if err != nil {
		return err
	}
	v["wire.pages_codec_ns"] = ns

	var buf bytes.Buffer
	payload := make([]byte, pagefile.DefaultPageSize)
	ns, err = timeLoop(e.iters(200000), func(int) error {
		buf.Reset()
		if err := wire.WriteFrame(&buf, wire.MsgPages, 7, payload); err != nil {
			return err
		}
		_, _, _, err := wire.ReadFrame(&buf, wire.DefaultMaxFrame)
		return err
	})
	v["wire.frame_rw_ns"] = ns
	return err
}

// microClient times the client against a loopback daemon on plain stores,
// where the server's own work is next to nothing.
func microClient(e microEnv, v values) error {
	ctx := context.Background()
	srv, addr, err := startDaemon(e.dbs, []privsp.Scheme{privsp.CI}, server.Options{})
	if err != nil {
		return err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		srv.Shutdown(sctx)
		cancel()
	}()
	connect, err := timeEach(e.iters(40), func(int) error {
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			return err
		}
		return c.Close()
	})
	if err != nil {
		return err
	}
	v["client.connect_ms"] = median(connect)

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	fd, err := c.FileInfo("Fd")
	if err != nil {
		return err
	}
	q := c.StartQuery()
	if err := q.NextRound(ctx); err != nil {
		return err
	}
	ns, err := timeLoop(e.iters(4000), func(i int) error {
		_, err := q.ReadPages(ctx, "Fd", []int{i % fd.NumPages})
		return err
	})
	if err != nil {
		return err
	}
	if _, err := q.End(ctx); err != nil {
		return err
	}
	v["client.fetch_rtt_us"] = ns / 1e3
	ns, err = timeLoop(e.iters(2000), func(int) error {
		q := c.StartQuery()
		if err := q.NextRound(ctx); err != nil {
			return err
		}
		_, err := q.End(ctx)
		return err
	})
	if err != nil {
		return err
	}
	v["client.begin_end_us"] = ns / 1e3

	scrape, err := timeEach(e.iters(60), func(int) error {
		return srv.Telemetry().WritePrometheus(io.Discard)
	})
	v["telemetry.scrape_ms"] = median(scrape)
	return err
}

// microScheme runs every scheme in-process (privsp.Serve, plain stores) on
// the first pairs of the pool: the client-side cost of a scheme with the
// transport and the scan taken away, next to the paper's simulated costs.
func microScheme(e microEnv, v values) error {
	ctx := context.Background()
	for i, s := range allSchemes {
		srv, err := privsp.Serve(e.dbs[s])
		if err != nil {
			return err
		}
		var (
			wall, rounds, pirPages, resp, pirS, comm []float64
			failed                                   int
		)
		pairs := e.pool[:min(e.sz.SchemeQ, len(e.pool))]
		for _, p := range pairs {
			t0 := time.Now()
			res, err := srv.ShortestPath(ctx, e.net.NodePoint(p.Src), e.net.NodePoint(p.Dst))
			took := time.Since(t0)
			if err != nil {
				if !isPlanOverflow(err) {
					return fmt.Errorf("micro scheme %s: %w", s, err)
				}
				failed++
				continue
			}
			if math.Abs(res.Cost-p.Cost) > costTolerance {
				return fmt.Errorf("%w: %s in-process %d->%d: got %.12g, Dijkstra says %.12g",
					errWrongAnswer, s, p.Src, p.Dst, res.Cost, p.Cost)
			}
			fetched := 0
			for _, n := range res.Stats.Fetches {
				fetched += n
			}
			wall = append(wall, float64(took)/1e6)
			rounds = append(rounds, float64(res.Stats.Rounds))
			pirPages = append(pirPages, float64(fetched))
			resp = append(resp, res.Stats.Response().Seconds())
			pirS = append(pirS, res.Stats.PIR.Seconds())
			comm = append(comm, res.Stats.Comm.Seconds())
		}
		p := "scheme." + schemeNames[i] + "."
		v[p+"compute_ms"] = median(wall)
		v[p+"build_s"] = e.built[s].Seconds()
		v[p+"db_mb"] = float64(e.dbs[s].TotalBytes()) / 1e6
		v[p+"rounds"] = mean(rounds)
		v[p+"pir_pages"] = mean(pirPages)
		v[p+"paper_response_s"] = mean(resp)
		v[p+"paper_pir_s"] = mean(pirS)
		v[p+"paper_comm_s"] = mean(comm)
		v[p+"fail_share"] = float64(failed) / float64(len(pairs))
	}
	return nil
}

// microPagefile saves the PI database as a .psdb container and serves pages
// back from disk through the LRU page cache.
func microPagefile(e microEnv, v values) error {
	path := filepath.Join(e.tmp, "pi.psdb")
	defer os.Remove(path)
	t0 := time.Now()
	if err := e.dbs[privsp.PI].Save(path); err != nil {
		return err
	}
	v["pagefile.save_ms"] = float64(time.Since(t0)) / 1e6

	t0 = time.Now()
	db, err := privsp.Open(path)
	if err != nil {
		return err
	}
	v["pagefile.open_verify_ms"] = float64(time.Since(t0)) / 1e6
	if err := db.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	db, err = privsp.Open(path, privsp.WithoutDataVerify())
	if err != nil {
		return err
	}
	defer db.Close()
	v["pagefile.open_noverify_ms"] = float64(time.Since(t0)) / 1e6

	fi := db.LBS().File("Fi")
	n := min(e.iters(4000), fi.NumPages())
	ns, err := timeLoop(n, func(i int) error { // distinct pages: every read misses
		_, err := fi.Page(i)
		return err
	})
	if err != nil {
		return err
	}
	v["pagefile.page_miss_us"] = ns / 1e3
	hot := min(64, fi.NumPages()) // well inside the default 256-page cache
	for i := 0; i < hot; i++ {
		if _, err := fi.Page(i); err != nil {
			return err
		}
	}
	ns, err = timeLoop(e.iters(200000), func(i int) error {
		_, err := fi.Page(i % hot)
		return err
	})
	v["pagefile.page_hit_us"] = ns / 1e3
	return err
}

// microPasses runs every micro-pass and files their metrics in v.
func microPasses(e microEnv, v values) error {
	for _, pass := range []func(microEnv, values) error{
		microScan, microWire, microClient, microScheme, microPagefile,
	} {
		if err := pass(e, v); err != nil {
			return err
		}
		runtime.GC() // drop the pass's arenas before the next one builds its own
	}
	return nil
}
