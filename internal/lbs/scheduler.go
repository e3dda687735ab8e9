package lbs

import (
	"context"
	"sync"

	"repro/internal/telemetry"
)

// The SPC schemes make every PIR answer scan the whole file, so the server's
// real budget is scans per second, not fetches per second. A scan store
// (pir.ParallelScan) answers a whole batch in one pass, and the scan
// scheduler forms those batches across connections by group commit: one
// pass runs at a time per file, and fetches from ANY connection that arrive
// during a pass ride the next one, turning cost per query into cost per
// scan under concurrent traffic.
//
// Two rules, named by the flush reason they record:
//
//   - lone: a fetch that finds the store idle is served immediately on the
//     caller's goroutine — a lone query never waits for anything.
//   - chain: a fetch that finds a pass running joins the pending batch. The
//     pass, when it ends, claims the batch and runs it as the next pass, so
//     under saturation the store runs pass after pass, each collecting the
//     arrivals of the previous one, and a queued fetch waits out only the
//     pass ahead of it (and the earlier claims, when scanBatchCap splits a
//     backlog).
//
// Privacy: the scheduler only concatenates page-index lists; each query in
// the merged batch still draws its own selector randomness inside the store
// (see pir.XORPIR.ReadBatchInto), so co-scheduled selector vectors from
// different connections are exactly as uniform and mutually independent as
// sequential ones, and each query's adversary-visible trace (file + count
// per round) is untouched by who else rode the scan. The scheduler metrics
// expose only batch shapes, flush reasons and scan counts — functions of
// traffic timing the LBS already observes, never of page contents.

// scanBatchCap bounds one chain claim, and with it the scratch memory a
// merged pass needs: whole requests in arrival order, at least one, up to
// this many pages. What the cap leaves pending rides the following pass.
const scanBatchCap = 256

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
	srv  *Server
	hs   *hostedStore
	file string

	mu      sync.Mutex
	busy    bool       // a pass is running; pending is non-empty only while busy
	pending []*scanReq // arrival order
}

// readInto serves one fetch through the shared batch. ReadPagesInto, its
// only caller, has already checked the page indices, so one query's hostile
// index can never poison the co-scheduled queries sharing its pass.
func (sc *scanScheduler) readInto(ctx context.Context, pages []int, dst [][]byte) error {
	if len(pages) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	sc.mu.Lock()
	if !sc.busy {
		// Idle store: serve immediately on the caller's goroutine. This is
		// the allocation-free steady-state path of a serial workload.
		sc.busy = true
		sc.mu.Unlock()
		err := sc.scan(ctx, pages, dst, 1, sc.srv.schedFlushLone)
		sc.finishScan()
		return err
	}

	// A pass is running: join the pending batch and wait for a pass to
	// claim it.
	sr := scanReqPool.Get().(*scanReq)
	sr.pages, sr.dst, sr.err = pages, dst, nil
	sc.pending = append(sc.pending, sr)
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
		// Claimed by a pass: the scan is (or will be) writing into dst, so
		// wait for it to finish before surrendering the buffers.
		<-sr.done
		err = ctx.Err()
	}
	scanReqPool.Put(sr)
	return err
}

// claimLocked takes the next pass's batch off the front of pending: whole
// requests in arrival order, at least one, up to scanBatchCap pages.
// Claimed requests can no longer be removed by cancellation (membership in
// pending IS the removable state).
func (sc *scanScheduler) claimLocked() []*scanReq {
	n, pages := 1, len(sc.pending[0].pages)
	for n < len(sc.pending) && pages+len(sc.pending[n].pages) <= scanBatchCap {
		pages += len(sc.pending[n].pages)
		n++
	}
	batch := sc.pending[:n:n]
	sc.pending = sc.pending[n:]
	return batch
}

// tryRemove withdraws a still-pending request (its submitter's context
// died). Reports false when a pass already claimed it.
func (sc *scanScheduler) tryRemove(sr *scanReq) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i, r := range sc.pending {
		if r == sr {
			sc.pending = append(sc.pending[:i], sc.pending[i+1:]...)
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
func (sc *scanScheduler) runBatch(batch []*scanReq) {
	ss := schedScratchPool.Get().(*schedScratch)
	pages, dst := ss.pages[:0], ss.dst[:0]
	for _, sr := range batch {
		pages = append(pages, sr.pages...)
		dst = append(dst, sr.dst...)
	}
	err := sc.scan(context.Background(), pages, dst, len(batch), sc.srv.schedFlushChain)
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

// scan enters the pool with one slot for the pass (see Server.beginScan)
// and answers the merged batch in a single store pass, recording the flush
// accounting only once the scan actually runs.
func (sc *scanScheduler) scan(ctx context.Context, pages []int, dst [][]byte, queries int, reason *telemetry.Counter) error {
	if err := sc.srv.beginScan(ctx, sc.hs); err != nil {
		return err
	}
	defer sc.srv.pool.release()
	reason.Inc()
	sc.srv.schedFetches.Add(uint64(queries))
	sc.srv.schedScans.Add(1)
	sc.srv.schedOccupancy.Observe(int64(queries))
	return fetchErr(ctx, "PIR fetch", sc.file, sc.hs.store.ReadBatchInto(ctx, pages, dst))
}

// finishScan ends a pass. If fetches queued while it ran, it claims the next
// batch and runs it on its own goroutine (chain), the store staying busy;
// otherwise the store goes idle. A serial workload (nothing pending) pays
// nothing here, which keeps the lone path's telemetry deterministic.
func (sc *scanScheduler) finishScan() {
	sc.mu.Lock()
	if len(sc.pending) == 0 {
		sc.busy = false
		sc.mu.Unlock()
		return
	}
	batch := sc.claimLocked()
	sc.mu.Unlock()
	go sc.runBatch(batch)
}
