package lbs

import (
	"context"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// waitQueued polls until the pool reports want queued passes: the tests
// sequence "this waiter is parked" before acting on it.
func waitQueued(t *testing.T, p *slotPool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, q := p.stats(); q == want {
			return
		}
		if time.Now().After(deadline) {
			_, q := p.stats()
			t.Fatalf("pool queue stuck at %d, want %d", q, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func wantStats(t *testing.T, p *slotPool, busy, queued int) {
	t.Helper()
	if b, q := p.stats(); b != busy || q != queued {
		t.Fatalf("pool busy/queued = %d/%d, want %d/%d", b, q, busy, queued)
	}
}

// queue starts an acquire that is expected to park and returns the channel
// its result arrives on.
func queue(ctx context.Context, p *slotPool, weight int) chan error {
	done := make(chan error, 1)
	go func() { done <- p.acquire(ctx, weight) }()
	return done
}

// TestPoolCancelWhileQueuedHoldsNothing: a cancelled waiter gives back
// everything — it leaves the queue holding no slot — and withdrawing the
// head of the queue lets the waiter behind it through.
func TestPoolCancelWhileQueuedHoldsNothing(t *testing.T) {
	p := &slotPool{size: 2, wait: telemetry.NewHistogram(telemetry.Seconds())}
	bg := context.Background()
	if err := p.acquire(bg, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	scan := queue(ctx, p, 2) // needs the whole pool: parks behind the held slot
	waitQueued(t, p, 1)
	narrow := queue(bg, p, 1) // a slot is free, but nobody overtakes the head
	waitQueued(t, p, 2)

	cancel()
	if err := <-scan; err != context.Canceled {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	if err := <-narrow; err != nil {
		t.Fatalf("waiter behind the withdrawn head: %v", err)
	}
	wantStats(t, p, 2, 0)
	p.release(1)
	p.release(1)
	wantStats(t, p, 0, 0)
	// One observation per successful acquisition, none for the cancelled one.
	if n := p.wait.Count(); n != 2 {
		t.Errorf("%d wait observations for 2 acquisitions", n)
	}
}

// TestPoolScanWaiterNotStarved: a pass that weighs the whole pool is served
// in arrival order — 1-slot reads that arrive after it queue behind it even
// while a slot is free, so a steady stream of them cannot keep it out.
func TestPoolScanWaiterNotStarved(t *testing.T) {
	p := &slotPool{size: 2}
	bg := context.Background()
	if err := p.acquire(bg, 1); err != nil {
		t.Fatal(err)
	}
	scan := queue(bg, p, 2)
	waitQueued(t, p, 1)
	late := []chan error{queue(bg, p, 1), queue(bg, p, 1)}
	waitQueued(t, p, 3)
	wantStats(t, p, 1, 3) // the free slot was not handed to a latecomer

	p.release(1)
	if err := <-scan; err != nil {
		t.Fatal(err)
	}
	wantStats(t, p, 2, 2) // the scan holds the pool; latecomers still wait
	p.release(2)
	for _, done := range late {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	wantStats(t, p, 2, 0)
}

// TestPoolWeightClamps: no pass can want more than the pool, so an oversized
// weight takes (and returns) exactly the pool, and two such passes queue one
// behind the other instead of deadlocking.
func TestPoolWeightClamps(t *testing.T) {
	p := &slotPool{size: 2}
	bg := context.Background()
	if err := p.acquire(bg, 5); err != nil {
		t.Fatal(err)
	}
	wantStats(t, p, 2, 0)
	second := queue(bg, p, 7)
	waitQueued(t, p, 1)
	p.release(5)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	wantStats(t, p, 2, 0)
	p.release(7)
	wantStats(t, p, 0, 0)
	if err := p.acquire(bg, 0); err != nil { // and never less than one slot
		t.Fatal(err)
	}
	wantStats(t, p, 1, 0)
}
