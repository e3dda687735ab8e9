package lbs

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The SPC schemes make every PIR answer scan the whole file, so the server's
// real budget is scans per second, not fetches per second. A scan store
// (pir.ParallelScan) already answers a whole batch in one pass — but
// batches used to form only inside one client's round. The scan scheduler
// closes that gap across connections: selector-vector fetches arriving from
// ANY connection are accumulated into one shared pending batch per file and
// answered with a single ReadBatchInto pass over the arena, turning cost per
// query into cost per scan under concurrent traffic.
//
// Flush policy, in order of precedence:
//
//   - lone: a fetch that finds the store idle (no scan running, nothing
//     pending) is served immediately on the caller's goroutine — a lone
//     query is never stalled behind the batching window.
//   - cap: a fetch that pushes the pending batch past the page cap flushes
//     it immediately (the submitting goroutine runs the scan), bounding the
//     scratch memory one scan needs.
//   - deadline: a fetch whose context expires before the window would
//     elapse pulls the flush forward so its answer can still make the
//     deadline.
//   - chain: requests that queued while a scan was in flight are flushed
//     the moment that scan completes (group-commit style) — under
//     saturation the store runs scan after scan, each collecting
//     everything that arrived during the previous one, and a queued
//     request never waits longer than the residual scan time.
//   - window: otherwise the batch is flushed when the window (a few ms)
//     elapses, by the timer goroutine. With chain flushing the timer is
//     the fallback bound — it wins only when a scan outlasts the window.
//
// Privacy: the scheduler only concatenates page-index lists; each query in
// the merged batch still draws its own selector randomness inside the store
// (see pir.XORPIR.ReadBatchInto), so co-scheduled selector vectors from
// different connections are exactly as uniform and mutually independent as
// sequential ones, and each query's adversary-visible trace (file + count
// per round) is untouched by who else rode the scan. The scheduler metrics
// expose only batch shapes, flush reasons and scan counts — functions of
// traffic timing the LBS already observes, never of page contents.

// Scheduling constants. The window trades lone-ish latency for amortization:
// at heavy load a longer window packs more queries per scan; 2ms is small
// against network RTTs while long enough for concurrent rounds to pile up.
// The cap bounds the scratch memory one merged scan needs.
const (
	scanWindow   = 2 * time.Millisecond
	scanBatchCap = 256 // pages per merged scan
)

// scanReq is one connection's fetch waiting in the shared pending batch.
// The submitting goroutine owns it: it waits on done, reads err, and
// returns the request to the pool — the flusher's last touch is the done
// send, strictly after writing err.
type scanReq struct {
	pages []int
	dst   [][]byte
	err   error
	done  chan struct{} // buffered(1); signaled exactly once per claimed req
}

var scanReqPool = sync.Pool{
	New: func() any { return &scanReq{done: make(chan struct{}, 1)} },
}

// schedScratch is the merged-batch working set, pooled so a flush reuses
// its page-index and buffer tables.
type schedScratch struct {
	pages []int
	dst   [][]byte
}

var schedScratchPool = sync.Pool{New: func() any { return new(schedScratch) }}

// scanScheduler coalesces fetches against one scan store. One instance per
// hosted scan-store file; the flush-reason counters, batch
// occupancy histogram and amortization tallies are shared per server (one
// db label) across its files.
type scanScheduler struct {
	srv    *Server
	hs     *hostedStore
	file   string
	window time.Duration
	cap    int // pages per merged batch

	mu           sync.Mutex
	pending      []*scanReq
	pendingPages int
	scans        int         // scans in flight for this store (lone + merged)
	gen          uint64      // bumped when the pending batch is claimed
	timer        *time.Timer // flush timer for the current pending generation
	flushAt      time.Time   // when the armed timer fires
	timerReason  *telemetry.Counter
}

func newScanScheduler(s *Server, hs *hostedStore, file string) *scanScheduler {
	return &scanScheduler{
		srv:    s,
		hs:     hs,
		file:   file,
		window: scanWindow,
		cap:    scanBatchCap,
	}
}

// readInto serves one fetch through the shared batch. It validates the page
// indices up front so one query's hostile index can never poison the
// co-scheduled queries sharing its scan.
func (sc *scanScheduler) readInto(ctx context.Context, pages []int, dst [][]byte) error {
	np := sc.hs.store.NumPages()
	for _, p := range pages {
		if p < 0 || p >= np {
			return fmt.Errorf("lbs: PIR fetch %s: page %d of %d", sc.file, p, np)
		}
	}
	if len(pages) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	sc.mu.Lock()
	if sc.scans == 0 && len(sc.pending) == 0 {
		// Idle store: serve immediately on the caller's goroutine. This is
		// the allocation-free steady-state path of a serial workload — a
		// lone query pays no window at all.
		sc.scans++
		sc.mu.Unlock()
		err := sc.scan(ctx, pages, dst, 1, sc.srv.schedFlushLone)
		sc.finishScan()
		return err
	}

	// A scan is running (or a batch is already forming): join the pending
	// batch and wait for a flush.
	sr := scanReqPool.Get().(*scanReq)
	sr.pages, sr.dst, sr.err = pages, dst, nil
	sc.pending = append(sc.pending, sr)
	sc.pendingPages += len(pages)

	if sc.pendingPages >= sc.cap {
		// Cap reached: the submitter that filled the batch flushes it now.
		batch := sc.claimLocked()
		sc.mu.Unlock()
		sc.runBatch(batch, sc.srv.schedFlushCap)
		err := firstOf(ctx, sr)
		scanReqPool.Put(sr)
		return err
	}
	sc.armTimerLocked(ctx)
	sc.mu.Unlock()

	var err error
	select {
	case <-sr.done:
		err = sr.err
	case <-ctx.Done():
		if sc.tryRemove(sr) {
			// Still queued: the fetch never started, so nothing of it is
			// recorded and the worker pool never saw it.
			scanReqPool.Put(sr)
			return ctx.Err()
		}
		// Claimed by a flush: the scan is (or will be) writing into dst, so
		// wait for it to finish before surrendering the buffers.
		<-sr.done
		err = ctx.Err()
	}
	scanReqPool.Put(sr)
	return err
}

// firstOf returns the request's error, preferring the context's if both
// died — the cap-flush path answered sr synchronously, so done is already
// signaled.
func firstOf(ctx context.Context, sr *scanReq) error {
	<-sr.done
	if sr.err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return sr.err
}

// armTimerLocked (re)arms the flush timer for the pending batch. The first
// enqueue arms it at the window; a request whose context expires sooner
// pulls the flush forward so its answer can still make the deadline.
func (sc *scanScheduler) armTimerLocked(ctx context.Context) {
	delay := sc.window
	reason := sc.srv.schedFlushWindow
	if d, ok := ctx.Deadline(); ok {
		// Leave a quarter of the remaining budget for the scan itself.
		if until := time.Until(d) * 3 / 4; until < delay {
			delay = until
			reason = sc.srv.schedFlushDeadline
			if delay < 0 {
				delay = 0
			}
		}
	}
	at := time.Now().Add(delay)
	if sc.timer != nil {
		if at.After(sc.flushAt) && len(sc.pending) > 1 {
			return // an earlier flush is already scheduled
		}
		sc.timer.Stop()
	}
	sc.flushAt = at
	sc.timerReason = reason
	gen := sc.gen
	sc.timer = time.AfterFunc(delay, func() { sc.onTimer(gen) })
}

// onTimer flushes the pending batch the timer was armed for. A stale firing
// (the batch was already claimed by a cap flush or a newer timer) is a
// no-op, detected by the generation counter.
func (sc *scanScheduler) onTimer(gen uint64) {
	sc.mu.Lock()
	if gen != sc.gen || len(sc.pending) == 0 {
		sc.mu.Unlock()
		return
	}
	reason := sc.timerReason
	batch := sc.claimLocked()
	sc.mu.Unlock()
	sc.runBatch(batch, reason)
}

// claimLocked takes the whole pending batch for one scan. Bumping gen
// invalidates the armed timer; claimed requests can no longer be removed by
// cancellation (membership in pending IS the removable state).
func (sc *scanScheduler) claimLocked() []*scanReq {
	batch := sc.pending
	sc.pending, sc.pendingPages = nil, 0
	sc.gen++
	if sc.timer != nil {
		sc.timer.Stop()
		sc.timer = nil
	}
	sc.scans++
	return batch
}

// tryRemove withdraws a still-pending request (its submitter's context
// died). Reports false when a flush already claimed it.
func (sc *scanScheduler) tryRemove(sr *scanReq) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i, r := range sc.pending {
		if r == sr {
			sc.pending = append(sc.pending[:i], sc.pending[i+1:]...)
			sc.pendingPages -= len(sr.pages)
			if len(sc.pending) == 0 && sc.timer != nil {
				sc.timer.Stop()
				sc.timer = nil
				sc.gen++
			}
			return true
		}
	}
	return false
}

// runBatch merges the claimed requests into one page list and answers them
// all with a single scan, then settles every waiter. The merged scan runs
// under a background context: it serves several queries at once, so no
// single query's cancellation may abort it (mirroring the "a read that
// started always completes" contract).
func (sc *scanScheduler) runBatch(batch []*scanReq, reason *telemetry.Counter) {
	ss := schedScratchPool.Get().(*schedScratch)
	pages, dst := ss.pages[:0], ss.dst[:0]
	for _, sr := range batch {
		pages = append(pages, sr.pages...)
		dst = append(dst, sr.dst...)
	}
	err := sc.scan(context.Background(), pages, dst, len(batch), reason)
	// Release the store before waking waiters so a serial follower observes
	// the idle store and takes the lone path deterministically.
	sc.finishScan()
	for _, sr := range batch {
		sr.err = err
		sr.done <- struct{}{}
	}
	ss.pages, ss.dst = pages[:0], dst[:0]
	schedScratchPool.Put(ss)
}

// scan enters the pool with the store's slot weight (see Server.beginScan)
// and answers the merged batch in a single store pass, recording the flush
// accounting only once the scan actually runs.
func (sc *scanScheduler) scan(ctx context.Context, pages []int, dst [][]byte, queries int, reason *telemetry.Counter) error {
	if err := sc.srv.beginScan(ctx, sc.hs); err != nil {
		return err
	}
	defer sc.srv.pool.release(sc.hs.scanWorkers)
	reason.Inc()
	sc.srv.schedFetches.Add(uint64(queries))
	sc.srv.schedScans.Add(1)
	sc.srv.schedOccupancy.Observe(int64(queries))
	return fetchErr(ctx, "PIR fetch", sc.file, sc.hs.store.ReadBatchInto(ctx, pages, dst))
}

// finishScan marks one scan done. Requests that queued while it ran are
// flushed immediately on their own goroutine (chain flush): under
// saturation the store runs scan after scan, each batch collecting the
// arrivals of the previous scan, and nobody waits out the window timer.
// The claim cancels that timer; a serial workload (nothing pending) pays
// nothing here, which keeps the lone path's telemetry deterministic.
func (sc *scanScheduler) finishScan() {
	sc.mu.Lock()
	if sc.scans--; sc.scans == 0 && len(sc.pending) > 0 {
		batch := sc.claimLocked()
		sc.mu.Unlock()
		go sc.runBatch(batch, sc.srv.schedFlushChain)
		return
	}
	sc.mu.Unlock()
}
