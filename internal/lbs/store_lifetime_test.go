package lbs

import (
	"bytes"
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/pir/pirtest"
	"repro/internal/telemetry"
)

// pirGoroutines counts the goroutines alive in the process that internal/pir
// started, by the creation site every one of them carries.
func pirGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by repro/internal/pir."))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestDroppedServerReleasesScanWorkers checks that a store owns memory and
// nothing else.
// The goroutines of a parallel pass are joined before the read returns (a
// helper may still be unwinding past its last statement, hence the short
// settle loop), and a server that was dropped after serving — telemetry
// registered — is collectable together with its stores' arenas.
func TestDroppedServerReleasesScanWorkers(t *testing.T) {
	pirtest.AtLeastProcs(t, 2)
	var collected atomic.Bool
	func() {
		db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{pirtest.WideFile("F")}}
		var store *pir.XORPIR
		factory := func(r pagefile.Reader) (pir.Store, error) {
			x, err := pir.NewXORPIR(r)
			if err == nil {
				store = x
				runtime.AddCleanup(x, func(c *atomic.Bool) { c.Store(true) }, &collected)
			}
			return x, err
		}
		srv, err := NewServer(db, costmodel.Default(), factory,
			WithTelemetry(telemetry.NewRegistry(), "T"), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if w := store.ScanWorkers(); w < 2 {
			t.Fatalf("scan width %d on a 1 MiB file at GOMAXPROCS %d, want >= 2: the read would not take the parallel kernel",
				w, runtime.GOMAXPROCS(0))
		}
		got, err := srv.ReadPages(context.Background(), "F", []int{3, 200})
		if err != nil {
			t.Fatal(err)
		}
		if got[0][0] != 4 || got[1][0] != 201 {
			t.Fatalf("wrong pages: %x %x", got[0][0], got[1][0])
		}
		n := pirGoroutines()
		for i := 0; i < 100 && n > 0; i++ {
			time.Sleep(time.Millisecond)
			n = pirGoroutines()
		}
		if n > 0 {
			t.Fatalf("%d goroutines started by internal/pir outlive the read that started them", n)
		}
	}()

	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("the dropped server's store was never collected: something still pins its arena")
	}
}
