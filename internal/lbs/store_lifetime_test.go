package lbs

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/telemetry"
)

// scanWorkerGoroutines counts the pir scan workers alive in the process, by
// the creation site every one of them carries (a worker that has not been
// scheduled yet shows no frame of its own).
func scanWorkerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by repro/internal/pir.(*scanGroup).ensure"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settleScanWorkers collects until the worker count stops at or below want
// (or the retries run out) and returns the last count.
func settleScanWorkers(want int) int {
	n := scanWorkerGoroutines()
	for i := 0; i < 50 && n > want; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		n = scanWorkerGoroutines()
	}
	return n
}

// TestDroppedServerReleasesScanWorkers: a server that has served a parallel
// scan must not stay reachable from its own stores' parked scan workers.
// With telemetry on, the segment observer lives in the store's worker group;
// if it captures the server, the XORPIR cleanup never fires and arena plus
// workers leak per hosted store.
func TestDroppedServerReleasesScanWorkers(t *testing.T) {
	before := settleScanWorkers(0) // workers of stores earlier tests dropped

	func() {
		const pages, pageSize = 256, 1024
		f := pagefile.NewFile("F", pageSize)
		for i := 0; i < pages; i++ {
			f.MustAppendPage(bytes.Repeat([]byte{byte(i + 1)}, pageSize))
		}
		db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{f}}
		factory := func(r pagefile.Reader) (pir.Store, error) { return pir.NewXORPIR(r) }
		srv, err := NewServer(db, costmodel.Default(), factory,
			WithTelemetry(telemetry.NewRegistry(), "T"), WithWorkers(2), WithScanWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if w := srv.stores["F"].scanWorkers; w != 2 {
			t.Fatalf("scan width %d, want 2", w)
		}
		got, err := srv.ReadPages(context.Background(), "F", []int{3, 200})
		if err != nil {
			t.Fatal(err)
		}
		if got[0][0] != 4 || got[1][0] != 201 {
			t.Fatalf("wrong pages: %x %x", got[0][0], got[1][0])
		}
		if n := scanWorkerGoroutines(); n <= before {
			t.Fatalf("parallel scan started no worker goroutine (%d before, %d now)", before, n)
		}
	}()

	if after := settleScanWorkers(before); after > before {
		t.Fatalf("%d scan workers still parked after the server was dropped (%d before it existed): "+
			"the store is pinned by its own goroutines", after, before)
	}
}
