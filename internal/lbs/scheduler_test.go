package lbs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/telemetry"
)

// gatedXOR wraps a real XORPIR store so tests can hold a scan open (every
// ReadBatchInto announces itself on entered, then blocks until a token
// arrives on release) and capture, per flush, which page lists and selector
// vectors one scan actually answered. Holding the first scan at the gate is
// how the tests force later fetches — issued by different goroutines, i.e.
// different connections — into one deterministic co-scheduled batch.
type gatedXOR struct {
	*pir.XORPIR
	entered chan struct{} // one send per ReadBatchInto, before blocking
	release chan struct{} // one receive per ReadBatchInto, before scanning

	mu           sync.Mutex
	flushes      [][]int    // page list per ReadBatchInto call, in call order
	selsA        [][][]byte // server-A selector vectors per call
	inPass, peak int        // ReadBatchInto calls running now, and at most
}

func (g *gatedXOR) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	if g.entered != nil {
		g.entered <- struct{}{}
		<-g.release
	}
	g.mu.Lock()
	g.inPass++
	g.peak = max(g.peak, g.inPass)
	g.mu.Unlock()
	err := g.XORPIR.ReadBatchInto(ctx, pages, dst)
	a, _ := g.XORPIR.LastBatchQueries()
	g.mu.Lock()
	g.inPass--
	if err == nil {
		g.flushes = append(g.flushes, append([]int(nil), pages...))
		g.selsA = append(g.selsA, a)
	}
	g.mu.Unlock()
	return err
}

func (g *gatedXOR) snapshotFlushes() [][]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([][]int, len(g.flushes))
	copy(out, g.flushes)
	return out
}

const schedTestPages = 64

// newSchedServer hosts one 64-page file on an XORPIR store wrapped in a
// gatedXOR (gated only when gate is true) with telemetry enabled, so tests
// can read the flush-reason counters directly.
func newSchedServer(t *testing.T, gate bool, opts ...ServerOption) (*Server, *gatedXOR) {
	t.Helper()
	const pageSize = 32
	f := pagefile.NewFile("F", pageSize)
	for i := 0; i < schedTestPages; i++ {
		f.MustAppendPage(bytes.Repeat([]byte{byte(i + 1)}, pageSize))
	}
	db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{f}}
	var gx *gatedXOR
	factory := func(r pagefile.Reader) (pir.Store, error) {
		x, err := pir.NewXORPIR(r)
		if err != nil {
			return nil, err
		}
		gx = &gatedXOR{XORPIR: x}
		if gate {
			gx.entered = make(chan struct{}, 16)
			gx.release = make(chan struct{})
		}
		return gx, nil
	}
	srv, err := NewServer(db, costmodel.Default(), factory,
		append(opts, WithTelemetry(telemetry.NewRegistry(), "T"))...)
	if err != nil {
		t.Fatal(err)
	}
	if srv.stores["F"].sched == nil {
		t.Fatal("XORPIR store did not get a scan scheduler")
	}
	return srv, gx
}

// waitPending polls until the store's pending batch holds want requests —
// the only scheduler-internal coupling the tests need, to sequence "B and C
// are enqueued" before releasing the scan that holds them back.
func waitPending(t *testing.T, srv *Server, want int) {
	t.Helper()
	sc := srv.stores["F"].sched
	deadline := time.Now().Add(5 * time.Second)
	for {
		sc.mu.Lock()
		n := len(sc.pending)
		sc.mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending batch stuck at %d requests, want %d", n, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func checkPage(t *testing.T, got [][]byte, pages []int) {
	t.Helper()
	for i, p := range pages {
		want := bytes.Repeat([]byte{byte(p + 1)}, 32)
		if !bytes.Equal(got[i], want) {
			t.Fatalf("page %d: got %x, want %x", p, got[i][:4], want[:4])
		}
	}
}

// TestSchedulerLoneQueryImmediate: a fetch that finds the store idle is
// served inline on the caller's goroutine — one pass, counted as lone,
// waiting for nothing.
func TestSchedulerLoneQueryImmediate(t *testing.T) {
	srv, gx := newSchedServer(t, false)
	start := time.Now()
	got, err := srv.ReadPages(context.Background(), "F", []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("lone query took %v — it waited for something", elapsed)
	}
	checkPage(t, got, []int{5})
	if got := srv.schedFlushLone.Value(); got != 1 {
		t.Errorf("lone flushes = %d, want 1", got)
	}
	if f, s := srv.schedFetches.Load(), srv.schedScans.Load(); f != 1 || s != 1 {
		t.Errorf("fetches/scans = %d/%d, want 1/1", f, s)
	}
	if flushes := gx.snapshotFlushes(); len(flushes) != 1 || len(flushes[0]) != 1 {
		t.Errorf("store saw flushes %v, want one single-page scan", flushes)
	}
}

// TestSchedulerChainMergesConcurrentFetches: while one scan holds the
// store, fetches from other goroutines accumulate and are answered by ONE
// merged scan the moment that scan completes (chain flush) — the
// cross-connection amortization the scheduler exists for.
func TestSchedulerChainMergesConcurrentFetches(t *testing.T) {
	srv, gx := newSchedServer(t, true)

	results := make(chan error, 3)
	fetch := func(page int) {
		got, err := srv.ReadPages(context.Background(), "F", []int{page})
		if err == nil {
			want := bytes.Repeat([]byte{byte(page + 1)}, 32)
			if !bytes.Equal(got[0], want) {
				err = fmt.Errorf("page %d: wrong content", page)
			}
		}
		results <- err
	}

	go fetch(1) // lone: starts scanning, blocks at the gate
	<-gx.entered
	go fetch(2) // these two arrive while the scan is held open,
	go fetch(3) // so they must join one shared pending batch
	waitPending(t, srv, 2)
	gx.release <- struct{}{} // finish the lone scan
	<-gx.entered             // merged scan of {2,3} begins
	gx.release <- struct{}{}
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}

	flushes := gx.snapshotFlushes()
	if len(flushes) != 2 {
		t.Fatalf("flushes = %v, want lone {1} then merged {2,3}", flushes)
	}
	if len(flushes[0]) != 1 || flushes[0][0] != 1 {
		t.Errorf("first flush = %v, want the lone page 1", flushes[0])
	}
	if len(flushes[1]) != 2 {
		t.Errorf("merged flush = %v, want both queued pages in one scan", flushes[1])
	}
	if got := srv.schedFlushChain.Value(); got != 1 {
		t.Errorf("chain flushes = %d, want 1", got)
	}
	if f, s := srv.schedFetches.Load(), srv.schedScans.Load(); f != 3 || s != 2 {
		t.Errorf("fetches/scans = %d/%d, want 3/2 (amortization > 1)", f, s)
	}
}

// TestSchedulerOnePassAtATime: whatever the arrivals, a scan store runs one
// pass at a time — even with pool slots to spare — and every fetch is
// answered by exactly one pass, either inline (lone) or claimed by the pass
// before it (chain).
func TestSchedulerOnePassAtATime(t *testing.T) {
	const goroutines, fetches = 8, 50
	srv, gx := newSchedServer(t, false, WithWorkers(4))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < fetches; i++ {
				pages := []int{(g + i) % schedTestPages, (3*g + 7*i) % schedTestPages}
				got, err := srv.ReadPages(context.Background(), "F", pages)
				if err != nil {
					t.Error(err)
					return
				}
				for j, p := range pages {
					if !bytes.Equal(got[j], bytes.Repeat([]byte{byte(p + 1)}, 32)) {
						t.Errorf("goroutine %d fetch %d: slot %d is not page %d", g, i, j, p)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	gx.mu.Lock()
	peak := gx.peak
	gx.mu.Unlock()
	if peak != 1 {
		t.Errorf("peak concurrent store passes = %d, want 1", peak)
	}
	scans := srv.schedScans.Load()
	if f := srv.schedFetches.Load(); f != goroutines*fetches {
		t.Errorf("fetches = %d, want %d", f, goroutines*fetches)
	}
	if lone, chain := srv.schedFlushLone.Value(), srv.schedFlushChain.Value(); lone+chain != scans {
		t.Errorf("lone %d + chain %d != scans %d: a pass ran under no rule", lone, chain, scans)
	}
}

// TestSchedulerChainClaimBounded: a backlog bigger than scanBatchCap is
// claimed in whole requests, in arrival order, up to the cap; the rest
// rides the pass after. Five 64-page fetches queued behind a held pass are
// answered by a 256-page pass and a 64-page pass.
func TestSchedulerChainClaimBounded(t *testing.T) {
	srv, gx := newSchedServer(t, true)
	all := make([]int, schedTestPages)
	for i := range all {
		all[i] = i
	}

	results := make(chan error, 6)
	fetch := func(pages []int) {
		got, err := srv.ReadPages(context.Background(), "F", pages)
		for i, p := range pages {
			if err == nil && !bytes.Equal(got[i], bytes.Repeat([]byte{byte(p + 1)}, 32)) {
				err = fmt.Errorf("slot %d is not page %d", i, p)
			}
		}
		results <- err
	}
	go fetch([]int{1})
	<-gx.entered // the lone pass, held
	for i := 0; i < 5; i++ {
		go fetch(all)
	}
	waitPending(t, srv, 5)
	gx.release <- struct{}{}
	for pass := 2; pass <= 3; pass++ {
		select {
		case <-gx.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("pass %d never started; passes so far: %d", pass, len(gx.snapshotFlushes()))
		}
		gx.release <- struct{}{}
	}
	for i := 0; i < 6; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}

	flushes := gx.snapshotFlushes()
	var sizes []int
	for _, fl := range flushes {
		sizes = append(sizes, len(fl))
	}
	if fmt.Sprint(sizes) != fmt.Sprint([]int{1, scanBatchCap, schedTestPages}) {
		t.Errorf("pass sizes = %v, want [1 %d %d]", sizes, scanBatchCap, schedTestPages)
	}
	if got := srv.schedFlushChain.Value(); got != 2 {
		t.Errorf("chain flushes = %d, want 2", got)
	}
}

// TestSchedulerCancelWhileQueued: cancelling a fetch that is still waiting
// in the pending batch withdraws it — it returns the context error promptly
// and no scan ever answers its pages.
func TestSchedulerCancelWhileQueued(t *testing.T) {
	srv, gx := newSchedServer(t, true)

	loneDone := make(chan error, 1)
	go func() {
		_, err := srv.ReadPages(context.Background(), "F", []int{1})
		loneDone <- err
	}()
	<-gx.entered

	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	go func() {
		_, err := srv.ReadPages(ctx, "F", []int{2})
		queuedDone <- err
	}()
	waitPending(t, srv, 1)
	cancel()
	select {
	case err := <-queuedDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled queued fetch returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled fetch still blocked — withdrawal from the pending batch failed")
	}

	gx.release <- struct{}{}
	if err := <-loneDone; err != nil {
		t.Fatal(err)
	}
	// The withdrawn page must never have been scanned, and the store must be
	// idle again (a lone follow-up proves no timer/flush is left behind).
	for _, fl := range gx.snapshotFlushes() {
		for _, p := range fl {
			if p == 2 {
				t.Fatalf("withdrawn page 2 appeared in flush %v", fl)
			}
		}
	}
	go func() { <-gx.entered; gx.release <- struct{}{} }()
	if _, err := srv.ReadPages(context.Background(), "F", []int{3}); err != nil {
		t.Fatalf("store wedged after cancellation: %v", err)
	}
	if got := srv.schedFlushLone.Value(); got != 2 {
		t.Errorf("lone flushes = %d, want 2 (cancelled fetch counted none)", got)
	}
}

// TestSchedulerRejectsHostilePages: an out-of-range index is rejected at
// submit, before the request can join (and poison) a shared batch, and
// before it is counted on any route.
func TestSchedulerRejectsHostilePages(t *testing.T) {
	srv, _ := newSchedServer(t, false)
	if _, err := srv.ReadPages(context.Background(), "F", []int{schedTestPages}); err == nil {
		t.Fatal("out-of-range page accepted")
	}
	if _, err := srv.ReadPages(context.Background(), "F", []int{-1}); err == nil {
		t.Fatal("negative page accepted")
	}
	if f, s := srv.schedFetches.Load(), srv.schedScans.Load(); f != 0 || s != 0 {
		t.Errorf("rejected fetches were recorded: fetches/scans = %d/%d", f, s)
	}
	if w, fo := srv.routeWhole.Value(), srv.routeFanOut.Value(); w != 0 || fo != 0 {
		t.Errorf("rejected fetches moved privsp_pir_route_total: single_scan/fan_out = %d/%d", w, fo)
	}
	// Valid work still flows after rejections.
	got, err := srv.ReadPages(context.Background(), "F", []int{0, schedTestPages - 1})
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, got, []int{0, schedTestPages - 1})
}

// chiSquaredBits mirrors the pir package's helper: the chi-squared statistic
// of per-bit set counts against the fair-coin expectation.
func chiSquaredBits(counts []int, trials int) float64 {
	expect := float64(trials) / 2
	variance := float64(trials) / 4
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / variance
	}
	return chi2
}

func selected(sel []byte, bit int) bool { return sel[bit/8]&(1<<(bit%8)) != 0 }

// TestSchedulerCoScheduledSelectorsUniformAndIndependent extends the
// selector privacy property across connections: when two fetches from
// DIFFERENT goroutines are merged into one scan by the scheduler, each
// query's server-A selector vector must stay marginally uniform per bit and
// the two co-scheduled vectors must be mutually independent (their XOR is
// uniform too) — exactly as if the queries had never shared a scan. Checked
// with chi-squared statistics against ≈10-sigma thresholds.
func TestSchedulerCoScheduledSelectorsUniformAndIndependent(t *testing.T) {
	const trials = 256
	srv, gx := newSchedServer(t, true)

	perBit := make([]int, schedTestPages)  // all co-scheduled vectors
	pairXOR := make([]int, schedTestPages) // XOR of the two vectors per merged scan
	results := make(chan error, 3)
	fetch := func(ctx context.Context, page int) {
		_, err := srv.ReadPages(ctx, "F", []int{page})
		results <- err
	}

	for trial := 0; trial < trials; trial++ {
		go fetch(context.Background(), trial%schedTestPages)
		<-gx.entered // lone pass held at the gate
		go fetch(context.Background(), (trial+7)%schedTestPages)
		go fetch(context.Background(), (trial+23)%schedTestPages)
		waitPending(t, srv, 2)
		gx.release <- struct{}{} // lone pass ends and claims both: one merged chain pass
		<-gx.entered
		gx.release <- struct{}{}
		for i := 0; i < 3; i++ {
			if err := <-results; err != nil {
				t.Fatal(err)
			}
		}

		gx.mu.Lock()
		merged := gx.selsA[len(gx.selsA)-1]
		gx.mu.Unlock()
		if len(merged) != 2 {
			t.Fatalf("trial %d: merged scan answered %d queries, want 2", trial, len(merged))
		}
		for b := 0; b < schedTestPages; b++ {
			for _, sel := range merged {
				if selected(sel, b) {
					perBit[b]++
				}
			}
			if selected(merged[0], b) != selected(merged[1], b) {
				pairXOR[b]++
			}
		}

		gx.mu.Lock()
		gx.flushes, gx.selsA = gx.flushes[:0], gx.selsA[:0]
		gx.mu.Unlock()
	}

	threshold := float64(schedTestPages) + 10*math.Sqrt(2*float64(schedTestPages))
	if chi2 := chiSquaredBits(perBit, 2*trials); chi2 > threshold {
		t.Errorf("co-scheduled selector bits not uniform (chi2 %.1f > %.1f)", chi2, threshold)
	}
	if chi2 := chiSquaredBits(pairXOR, trials); chi2 > threshold {
		t.Errorf("co-scheduled queries correlated across connections (pair XOR chi2 %.1f > %.1f)", chi2, threshold)
	}
}

// TestSchedulerMetricsEndpointIndependent: the scheduler's observable
// accounting — flush reasons, batch occupancy, fetch/scan tallies — must
// move identically for same-shape workloads whatever pages (endpoints) the
// queries actually asked for. Two serial single-page fetches with different
// targets must produce byte-identical registry deltas.
func TestSchedulerMetricsEndpointIndependent(t *testing.T) {
	reg := telemetry.NewRegistry()
	const pageSize = 32
	f := pagefile.NewFile("F", pageSize)
	for i := 0; i < schedTestPages; i++ {
		f.MustAppendPage(bytes.Repeat([]byte{byte(i + 1)}, pageSize))
	}
	db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{f}}
	srv, err := NewServer(db, costmodel.Default(), XORStores, WithTelemetry(reg, "T"))
	if err != nil {
		t.Fatal(err)
	}

	// Warm up pools so both measured runs start from identical state.
	if _, err := srv.ReadPages(context.Background(), "F", []int{9}); err != nil {
		t.Fatal(err)
	}
	var deltas []string
	for _, page := range []int{3, 61} {
		before := reg.Snapshot()
		if _, err := srv.ReadPages(context.Background(), "F", []int{page}); err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, telemetry.Delta(before, reg.Snapshot()))
	}
	if deltas[0] != deltas[1] {
		t.Errorf("scheduler metrics depend on the fetched page:\npage 3:\n%s\npage 61:\n%s", deltas[0], deltas[1])
	}
}
