package lbs

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// slotPool is the per-server gate every store call goes through: a counting
// semaphore over the server's worker slots. A fetch or share batch is one
// store call on one slot — how many cores a scan store's pass folds with is
// the store's own scan width — so the pool size bounds how many store calls
// run at once.
type slotPool struct {
	slots  chan struct{}        // one token per held slot; cap is the pool size
	queued atomic.Int64         // batches waiting for a slot
	wait   *telemetry.Histogram // privsp_pool_wait_seconds; nil-safe
}

// size is the pool's slot count (the WithWorkers bound).
func (p *slotPool) size() int { return cap(p.slots) }

// acquire takes a slot, or returns ctx.Err() if the context dies while the
// batch is queued — the cancellation path that frees a worker the query no
// longer wants; a cancelled waiter holds nothing afterwards. Every
// successful acquisition records exactly one wait observation, and a batch
// that finds a slot free records zero without touching the clock, so the
// fast path stays allocation- and syscall-free.
func (p *slotPool) acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		p.wait.Observe(0)
		return nil
	default:
	}
	p.queued.Add(1)
	defer p.queued.Add(-1)
	start := time.Now()
	select {
	case p.slots <- struct{}{}:
		p.wait.Observe(int64(time.Since(start)))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release gives a slot back; a queued batch, if any, takes it.
func (p *slotPool) release() { <-p.slots }

// stats returns the slots held and the batches queued right now.
func (p *slotPool) stats() (busy, queued int) {
	return len(p.slots), int(p.queued.Load())
}
