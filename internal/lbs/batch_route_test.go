package lbs

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/telemetry"
)

// countingStore wraps a store that is not a scan store, counting the
// ReadBatchInto calls it receives and the largest batch among them — what
// the router's decision looks like from the store's side.
type countingStore struct {
	pir.Store

	mu       sync.Mutex
	calls    int
	maxBatch int
}

func (c *countingStore) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	c.mu.Lock()
	c.calls++
	c.maxBatch = max(c.maxBatch, len(pages))
	c.mu.Unlock()
	return c.Store.ReadBatchInto(ctx, pages, dst)
}

// TestReadPagesIntoMatchesReadPages is the router's table: for every store
// class and batch size, which route a fetch takes (the privsp_pir_route_total
// series it moves), how many store passes answer it, and that ReadPagesInto
// and the allocating ReadPages return the same, correct bytes. A scan store
// must receive its entire batch in ONE pass however many pool workers are
// free — splitting would multiply full-file scans — while any other store's
// batch fans out across the workers, the single-structure ORAMs included
// (they serialize on their own lock).
func TestReadPagesIntoMatchesReadPages(t *testing.T) {
	const pagesN, pageSize = 24, 32
	f := pagefile.NewFile("F", pageSize)
	want := make([][]byte, pagesN)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, pageSize)
		f.MustAppendPage(want[i])
	}
	db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{f}}
	batch8 := []int{0, 23, 7, 7, 12, 3, 19, 1}

	for _, tc := range []struct {
		name    string
		factory StoreFactory // nil for the xorpir rows, which count through gatedXOR
		workers int
		batch   []int
		// Expected route counter deltas, store passes, and largest pass.
		whole, fanOut   uint64
		calls, maxBatch int
	}{
		{"plain one page", PlainStores, 4, batch8[:1], 1, 0, 1, 1},
		{"plain batch", PlainStores, 4, batch8, 0, 1, 4, 2},
		{"plain batch one worker", PlainStores, 1, batch8, 1, 0, 1, 8},
		{"sharded batch", ShardedORAMStores(4, 3), 4, batch8, 0, 1, 4, 2},
		{"oram one page", ORAMStores(5), 4, batch8[:1], 1, 0, 1, 1},
		{"oram batch", ORAMStores(5), 4, batch8, 0, 1, 4, 2},
		{"pyramid batch", PyramidStores(), 3, batch8, 0, 1, 3, 3},
		{"xorpir one page", nil, 4, batch8[:1], 1, 0, 1, 1},
		{"xorpir batch", nil, 4, batch8, 1, 0, 1, 8},
		{"xorpir batch one worker", nil, 1, batch8, 1, 0, 1, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				cs *countingStore
				gx *gatedXOR
			)
			factory := func(r pagefile.Reader) (pir.Store, error) {
				if tc.factory == nil {
					x, err := pir.NewXORPIR(r)
					gx = &gatedXOR{XORPIR: x}
					return gx, err
				}
				st, err := tc.factory(r)
				cs = &countingStore{Store: st}
				return cs, err
			}
			srv, err := NewServer(db, costmodel.Default(), factory,
				WithWorkers(tc.workers), WithTelemetry(telemetry.NewRegistry(), "T"))
			if err != nil {
				t.Fatal(err)
			}
			dst := make([][]byte, len(tc.batch))
			for i := range dst {
				dst[i] = make([]byte, pageSize)
			}
			if err := srv.ReadPagesInto(context.Background(), "F", tc.batch, dst); err != nil {
				t.Fatalf("ReadPagesInto: %v", err)
			}
			for i, p := range tc.batch {
				if !bytes.Equal(dst[i], want[p]) {
					t.Fatalf("slot %d: not page %d", i, p)
				}
			}
			if w, fo := srv.routeWhole.Value(), srv.routeFanOut.Value(); w != tc.whole || fo != tc.fanOut {
				t.Errorf("routes single_scan/fan_out = %d/%d, want %d/%d", w, fo, tc.whole, tc.fanOut)
			}
			calls, maxBatch := 0, 0
			if gx != nil {
				for _, fl := range gx.snapshotFlushes() {
					calls, maxBatch = calls+1, max(maxBatch, len(fl))
				}
			} else {
				calls, maxBatch = cs.calls, cs.maxBatch
			}
			if calls != tc.calls || maxBatch != tc.maxBatch {
				t.Errorf("store saw %d passes, largest %d pages; want %d, largest %d",
					calls, maxBatch, tc.calls, tc.maxBatch)
			}

			got, err := srv.ReadPages(context.Background(), "F", tc.batch)
			if err != nil {
				t.Fatalf("ReadPages: %v", err)
			}
			for i := range tc.batch {
				if !bytes.Equal(got[i], dst[i]) {
					t.Fatalf("slot %d differs between ReadPages and ReadPagesInto", i)
				}
			}

			if err := srv.ReadPagesInto(context.Background(), "F", tc.batch, dst[:len(dst)-1]); err == nil {
				t.Error("mismatched buffer count accepted")
			}
			short := append([][]byte{make([]byte, pageSize-1)}, dst[1:]...)
			if err := srv.ReadPagesInto(context.Background(), "F", tc.batch, short); err == nil {
				t.Error("short buffer accepted")
			}
			if err := srv.ReadPagesInto(context.Background(), "nope", tc.batch, dst); err == nil {
				t.Error("unknown file accepted")
			}
		})
	}
}
