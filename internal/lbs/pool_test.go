package lbs

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/pir/pirtest"
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
func queue(ctx context.Context, p *slotPool) chan error {
	done := make(chan error, 1)
	go func() { done <- p.acquire(ctx) }()
	return done
}

// TestPoolCancelWhileQueuedHoldsNothing: a cancelled waiter gives back
// everything — it leaves the queue holding no slot — and the waiter behind
// it takes the next slot freed.
func TestPoolCancelWhileQueuedHoldsNothing(t *testing.T) {
	p := &slotPool{slots: make(chan struct{}, 2), wait: telemetry.NewHistogram(telemetry.Seconds())}
	bg := context.Background()
	for i := 0; i < 2; i++ {
		if err := p.acquire(bg); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(bg)
	first := queue(ctx, p)
	waitQueued(t, p, 1)
	second := queue(bg, p)
	waitQueued(t, p, 2)

	cancel()
	if err := <-first; err != context.Canceled {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	wantStats(t, p, 2, 1) // the cancelled waiter took nothing with it
	p.release()
	if err := <-second; err != nil {
		t.Fatalf("waiter behind the cancelled one: %v", err)
	}
	wantStats(t, p, 2, 0)
	p.release()
	p.release()
	wantStats(t, p, 0, 0)
	// One observation per successful acquisition, none for the cancelled one.
	if n := p.wait.Count(); n != 3 {
		t.Errorf("%d wait observations for 3 acquisitions", n)
	}
}

// TestPoolScanPassHoldsOneSlot: a pass over a scan store holds one pool slot
// however wide it scans, so with a two-slot pool a width-2 pass parked on
// its store leaves the other slot to a plain page read, which runs without
// queueing behind it.
func TestPoolScanPassHoldsOneSlot(t *testing.T) {
	pirtest.AtLeastProcs(t, 2)
	const pageSize = 32
	plain := pagefile.NewFile("P", pageSize)
	for i := 0; i < testPages; i++ {
		plain.MustAppendPage(bytes.Repeat([]byte{byte(i + 1)}, pageSize))
	}
	db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{pirtest.WideFile("S"), plain}}
	gx := &gatedXOR{entered: make(chan struct{}, 1), release: make(chan struct{})}
	factory := func(r pagefile.Reader) (pir.Store, error) {
		if r.Name() != "S" {
			return pir.NewPlain(r), nil
		}
		x, err := pir.NewXORPIR(r)
		if err != nil {
			return nil, err
		}
		gx.XORPIR = x
		return gx, nil
	}
	srv, err := NewServer(db, costmodel.Default(), factory, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if w := gx.ScanWorkers(); w < 2 {
		t.Fatalf("scan width %d on a 1 MiB file, want >= 2", w)
	}

	parked := make(chan error, 1)
	go func() {
		_, err := srv.ReadPages(context.Background(), "S", []int{7})
		parked <- err
	}()
	<-gx.entered // the pass has its slot and waits at the gate
	if busy, queued := srv.pool.stats(); busy != 1 || queued != 0 {
		t.Fatalf("width-2 pass: pool busy/queued = %d/%d, want 1/0", busy, queued)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := srv.ReadPages(ctx, "P", []int{3})
	if err != nil {
		t.Fatalf("plain read beside a parked scan pass: %v", err)
	}
	checkPage(t, got, []int{3})

	gx.release <- struct{}{}
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if busy, queued := srv.pool.stats(); busy != 0 || queued != 0 {
		t.Errorf("gauges busy=%d queued=%d after drain", busy, queued)
	}
}
