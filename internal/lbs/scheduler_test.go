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

	mu      sync.Mutex
	flushes [][]int    // page list per ReadBatchInto call, in call order
	selsA   [][][]byte // server-A selector vectors per call
}

func (g *gatedXOR) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	if g.entered != nil {
		g.entered <- struct{}{}
		<-g.release
	}
	err := g.XORPIR.ReadBatchInto(ctx, pages, dst)
	if err == nil {
		a, _ := g.XORPIR.LastBatchQueries()
		g.mu.Lock()
		g.flushes = append(g.flushes, append([]int(nil), pages...))
		g.selsA = append(g.selsA, a)
		g.mu.Unlock()
	}
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
// can read the flush-reason counters directly. A non-zero window or page cap
// replaces the scheduler's constant for this server.
func newSchedServer(t *testing.T, gate bool, window time.Duration, pageCap int) (*Server, *gatedXOR) {
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
	srv, err := NewServer(db, costmodel.Default(), factory, WithTelemetry(telemetry.NewRegistry(), "T"))
	if err != nil {
		t.Fatal(err)
	}
	sc := srv.stores["F"].sched
	if sc == nil {
		t.Fatal("XORPIR store did not get a scan scheduler")
	}
	if window != 0 {
		sc.window = window
	}
	if pageCap != 0 {
		sc.cap = pageCap
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

// TestSchedulerLoneQueryImmediate is the latency half of the acceptance
// criterion: a fetch that finds the store idle is served inline, paying none
// of the batching window. With a 10-second window, any reliance on the timer
// would hang the test; the lone path must return in milliseconds.
func TestSchedulerLoneQueryImmediate(t *testing.T) {
	srv, gx := newSchedServer(t, false, 10*time.Second, 0)
	start := time.Now()
	got, err := srv.ReadPages(context.Background(), "F", []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("lone query took %v — stalled behind the batching window", elapsed)
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
// cross-connection amortization the scheduler exists for, with no window
// wait for the queued requests.
func TestSchedulerChainMergesConcurrentFetches(t *testing.T) {
	srv, gx := newSchedServer(t, true, 250*time.Millisecond, 0)

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
	if got := srv.schedFlushWindow.Value(); got != 0 {
		t.Errorf("window flushes = %d, want 0 (chain must beat the 250ms timer)", got)
	}
	if f, s := srv.schedFetches.Load(), srv.schedScans.Load(); f != 3 || s != 2 {
		t.Errorf("fetches/scans = %d/%d, want 3/2 (amortization > 1)", f, s)
	}
}

// TestSchedulerWindowFallbackFlush: when a scan outlasts the window, the
// timer — not the chain — flushes the queued batch, bounding how long a
// request can sit behind a slow scan. The flush claims the batch while the
// first scan is still held open; its own scan then queues on the worker
// pool behind it.
func TestSchedulerWindowFallbackFlush(t *testing.T) {
	srv, gx := newSchedServer(t, true, 50*time.Millisecond, 0)

	results := make(chan error, 2)
	fetch := func(page int) {
		_, err := srv.ReadPages(context.Background(), "F", []int{page})
		results <- err
	}
	go fetch(1) // lone: held open at the gate, longer than the window
	<-gx.entered
	go fetch(2)
	waitPending(t, srv, 1)
	waitPending(t, srv, 0)   // the 50ms timer claims {2} while scan 1 is held
	gx.release <- struct{}{} // now let the lone scan finish
	<-gx.entered             // the window-flushed scan of {2}
	gx.release <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.schedFlushWindow.Value(); got != 1 {
		t.Errorf("window flushes = %d, want 1", got)
	}
	if got := srv.schedFlushChain.Value(); got != 0 {
		t.Errorf("chain flushes = %d, want 0 (timer already claimed the batch)", got)
	}
}

// TestSchedulerCapFlush: filling the pending batch to the page cap flushes
// it immediately — no waiting out the (here deliberately enormous) window.
func TestSchedulerCapFlush(t *testing.T) {
	srv, gx := newSchedServer(t, true, 10*time.Second, 2)

	results := make(chan error, 3)
	fetch := func(page int) {
		_, err := srv.ReadPages(context.Background(), "F", []int{page})
		results <- err
	}
	go fetch(1)
	<-gx.entered
	go fetch(2)
	waitPending(t, srv, 1)
	go fetch(3)              // second pending page reaches the cap: immediate flush
	waitPending(t, srv, 0)   // the cap claim empties pending while scan 1 is held
	gx.release <- struct{}{} // finish scan 1; the cap-flushed scan follows
	<-gx.entered
	gx.release <- struct{}{}
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.schedFlushCap.Value(); got != 1 {
		t.Errorf("cap flushes = %d, want 1", got)
	}
	if flushes := gx.snapshotFlushes(); len(flushes) != 2 || len(flushes[1]) != 2 {
		t.Errorf("flushes = %v, want lone {1} then cap-flushed {2,3}", flushes)
	}
}

// TestSchedulerDeadlineEarlyFlush: a queued fetch whose context expires long
// before the window must have its flush pulled forward — the 10-second
// window (and even the chain flush, since the scan ahead of it is held
// open past the deadline-derived delay) would otherwise kill it. The
// deadline timer claims the batch at ¾ of the 2-second budget, while scan
// 1 is still at the gate.
func TestSchedulerDeadlineEarlyFlush(t *testing.T) {
	srv, gx := newSchedServer(t, true, 10*time.Second, 0)

	results := make(chan error, 2)
	go func() {
		_, err := srv.ReadPages(context.Background(), "F", []int{1})
		results <- err
	}()
	<-gx.entered
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		start := time.Now()
		_, err := srv.ReadPages(ctx, "F", []int{2})
		if err == nil && time.Since(start) > 2*time.Second {
			err = errors.New("answered after its own deadline")
		}
		results <- err
	}()
	waitPending(t, srv, 1)
	waitPending(t, srv, 0)   // the ~1.5s deadline timer claims {2}; scan 1 still held
	gx.release <- struct{}{} // let scan 1 finish; the deadline flush follows
	<-gx.entered             // deadline-driven scan of {2}, well before the 10s window
	gx.release <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.schedFlushDeadline.Value(); got != 1 {
		t.Errorf("deadline flushes = %d, want 1", got)
	}
	if got := srv.schedFlushChain.Value(); got != 0 {
		t.Errorf("chain flushes = %d, want 0 (deadline timer already claimed)", got)
	}
}

// TestSchedulerCancelWhileQueued: cancelling a fetch that is still waiting
// in the pending batch withdraws it — it returns the context error promptly
// and no scan ever answers its pages.
func TestSchedulerCancelWhileQueued(t *testing.T) {
	srv, gx := newSchedServer(t, true, 10*time.Second, 0)

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
// submit, before the request can join (and poison) a shared batch.
func TestSchedulerRejectsHostilePages(t *testing.T) {
	srv, _ := newSchedServer(t, false, 0, 0)
	if _, err := srv.ReadPages(context.Background(), "F", []int{schedTestPages}); err == nil {
		t.Fatal("out-of-range page accepted")
	}
	if _, err := srv.ReadPages(context.Background(), "F", []int{-1}); err == nil {
		t.Fatal("negative page accepted")
	}
	if f, s := srv.schedFetches.Load(), srv.schedScans.Load(); f != 0 || s != 0 {
		t.Errorf("rejected fetches were recorded: fetches/scans = %d/%d", f, s)
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

// TestSchedulerCoScheduledSelectorsUniformAndIndependent extends the PR 5
// selector privacy property across connections: when two fetches from
// DIFFERENT goroutines are merged into one scan by the scheduler, each
// query's server-A selector vector must stay marginally uniform per bit and
// the two co-scheduled vectors must be mutually independent (their XOR is
// uniform too) — exactly as if the queries had never shared a scan. Checked
// with chi-squared statistics against ≈10-sigma thresholds.
func TestSchedulerCoScheduledSelectorsUniformAndIndependent(t *testing.T) {
	const trials = 256
	srv, gx := newSchedServer(t, true, 10*time.Second, 2)

	perBit := make([]int, schedTestPages)  // all co-scheduled vectors
	pairXOR := make([]int, schedTestPages) // XOR of the two vectors per merged scan
	results := make(chan error, 3)
	fetch := func(ctx context.Context, page int) {
		_, err := srv.ReadPages(ctx, "F", []int{page})
		results <- err
	}

	for trial := 0; trial < trials; trial++ {
		go fetch(context.Background(), trial%schedTestPages)
		<-gx.entered
		go fetch(context.Background(), (trial+7)%schedTestPages)
		waitPending(t, srv, 1)
		go fetch(context.Background(), (trial+23)%schedTestPages) // hits the cap: merged flush
		waitPending(t, srv, 0)                                    // cap claim done while scan 1 is still held
		gx.release <- struct{}{}
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
