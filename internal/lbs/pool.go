package lbs

import (
	"context"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// slotPool is the per-server gate every store pass goes through: a FIFO
// weighted semaphore over the server's worker slots. A page read weighs one
// slot; a pass over a scan store weighs its scan-worker width, so a parallel
// scan charges the pool for every core it will occupy. A weight is granted
// whole or not at all, so two multi-slot scans can never deadlock each other
// on half the pool each, and strictly in arrival order, so a stream of
// 1-slot reads cannot starve a scan waiting for the pool to drain.
type slotPool struct {
	size int
	wait *telemetry.Histogram // privsp_pool_wait_seconds; nil-safe

	mu      sync.Mutex
	held    int
	waiters []*slotWaiter // arrival order
}

type slotWaiter struct {
	weight int
	ready  chan struct{} // closed, under mu, once the weight is granted
}

// clamp bounds a weight to [1, size]: no pass can want more than the pool.
func (p *slotPool) clamp(weight int) int {
	return max(1, min(weight, p.size))
}

// acquire takes weight slots, or returns ctx.Err() if the context dies while
// the pass is queued — the cancellation path that frees a worker the query
// no longer wants; a cancelled waiter holds nothing afterwards. Every
// successful acquisition records exactly one wait observation, and a pass
// that finds its slots free records zero without touching the clock, so the
// fast path stays allocation- and syscall-free.
func (p *slotPool) acquire(ctx context.Context, weight int) error {
	weight = p.clamp(weight)
	p.mu.Lock()
	if len(p.waiters) == 0 && p.size-p.held >= weight {
		p.held += weight
		p.mu.Unlock()
		p.wait.Observe(0)
		return nil
	}
	w := &slotWaiter{weight: weight, ready: make(chan struct{})}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()

	start := time.Now()
	select {
	case <-w.ready:
		p.wait.Observe(int64(time.Since(start)))
		return nil
	case <-ctx.Done():
	}
	p.mu.Lock()
	select {
	case <-w.ready:
		// Granted while giving up: hand the slots straight back.
		p.held -= weight
	default:
		for i, q := range p.waiters {
			if q == w {
				p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
				break
			}
		}
	}
	// Returned slots, or a withdrawn head of the queue, may unblock others.
	p.grantLocked()
	p.mu.Unlock()
	return ctx.Err()
}

// release gives weight slots back and wakes the waiters they now cover.
func (p *slotPool) release(weight int) {
	p.mu.Lock()
	p.held -= p.clamp(weight)
	p.grantLocked()
	p.mu.Unlock()
}

// grantLocked admits waiters from the head of the queue while their weights
// fit. Nobody overtakes the head, which is what keeps a multi-slot waiter
// from starving.
func (p *slotPool) grantLocked() {
	for len(p.waiters) > 0 && p.size-p.held >= p.waiters[0].weight {
		w := p.waiters[0]
		p.waiters = p.waiters[1:]
		p.held += w.weight
		close(w.ready)
	}
}

// stats returns the slots held and the passes queued right now.
func (p *slotPool) stats() (busy, queued int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held, len(p.waiters)
}
