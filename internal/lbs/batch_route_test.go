package lbs

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/telemetry"
)

// countingStore wraps a store, keeping the page list of every
// ReadBatchInto call it receives — what the router's decision looks like
// from the store's side.
type countingStore struct {
	pir.Store

	mu    sync.Mutex
	calls [][]int
}

func (c *countingStore) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	c.mu.Lock()
	c.calls = append(c.calls, append([]int(nil), pages...))
	c.mu.Unlock()
	return c.Store.ReadBatchInto(ctx, pages, dst)
}

// gatedXOR wraps a real XORPIR store, a scan store, so tests can hold a pass
// open (when entered is set, every ReadBatchInto announces itself on entered,
// then blocks until release yields) and see the page list of every pass
// that answered.
type gatedXOR struct {
	*pir.XORPIR
	entered chan struct{} // one send per ReadBatchInto, before blocking
	release chan struct{} // one receive per ReadBatchInto, before scanning

	mu     sync.Mutex
	passes [][]int // page list per successful ReadBatchInto, in call order
}

func (g *gatedXOR) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	if g.entered != nil {
		g.entered <- struct{}{}
		<-g.release
	}
	err := g.XORPIR.ReadBatchInto(ctx, pages, dst)
	if err == nil {
		g.mu.Lock()
		g.passes = append(g.passes, append([]int(nil), pages...))
		g.mu.Unlock()
	}
	return err
}

func (g *gatedXOR) snapshotPasses() [][]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([][]int, len(g.passes))
	copy(out, g.passes)
	return out
}

// testPages is the length of the test files whose page i holds the byte i+1
// throughout (see checkPage).
const testPages = 64

func checkPage(t *testing.T, got [][]byte, pages []int) {
	t.Helper()
	for i, p := range pages {
		want := bytes.Repeat([]byte{byte(p + 1)}, 32)
		if !bytes.Equal(got[i], want) {
			t.Fatalf("page %d: got %x, want %x", p, got[i][:4], want[:4])
		}
	}
}

// TestReadPagesIntoMatchesReadPages is the router's table: for plain and
// XOR-PIR stores at every pool size, a fetch reaches the store as ONE
// ReadBatchInto call carrying the whole batch — however many pool workers
// are free — and ReadPagesInto and the allocating ReadPages return the
// same, correct bytes.
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
		factory StoreFactory
		workers int
		batch   []int
	}{
		{"plain one page", PlainStores, 4, batch8[:1]},
		{"plain batch one worker", PlainStores, 1, batch8},
		{"plain batch three workers", PlainStores, 3, batch8},
		{"plain batch four workers", PlainStores, 4, batch8},
		{"xorpir one page", XORStores, 4, batch8[:1]},
		{"xorpir batch one worker", XORStores, 1, batch8},
		{"xorpir batch three workers", XORStores, 3, batch8},
		{"xorpir batch four workers", XORStores, 4, batch8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cs *countingStore
			factory := func(r pagefile.Reader) (pir.Store, error) {
				st, err := tc.factory(r)
				cs = &countingStore{Store: st}
				return cs, err
			}
			reg := telemetry.NewRegistry()
			srv, err := NewServer(db, costmodel.Default(), factory,
				WithWorkers(tc.workers), WithTelemetry(reg, "T"))
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
			if len(cs.calls) != 1 || !slices.Equal(cs.calls[0], tc.batch) {
				t.Errorf("store calls %v, want one carrying %v", cs.calls, tc.batch)
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

			// Rejections and the empty batch: each returns before a pool slot
			// is taken or waited for, so no series moves and the store is not
			// called.
			withLast := func(p int) []int {
				return append(tc.batch[:len(tc.batch)-1:len(tc.batch)-1], p)
			}
			short := append([][]byte{make([]byte, pageSize-1)}, dst[1:]...)
			for _, c := range []struct {
				what, file string
				pages      []int
				dst        [][]byte
				ok         bool
			}{
				{"mismatched buffer count", "F", tc.batch, dst[:len(dst)-1], false},
				{"short buffer", "F", tc.batch, short, false},
				{"unknown file", "nope", tc.batch, dst, false},
				{"out-of-range page", "F", withLast(pagesN), dst, false},
				{"negative page", "F", withLast(-1), dst, false},
				{"empty batch", "F", nil, nil, true},
			} {
				before := reg.Snapshot()
				if err := srv.ReadPagesInto(context.Background(), c.file, c.pages, c.dst); (err == nil) != c.ok {
					t.Errorf("%s: err = %v, want ok=%v", c.what, err, c.ok)
				}
				if d := telemetry.Delta(before, reg.Snapshot()); d != "" {
					t.Errorf("%s moved metrics:\n%s", c.what, d)
				}
			}
			if n := len(cs.calls); n != 2 {
				t.Errorf("store saw %d calls after the rejections, want the 2 good fetches", n)
			}
		})
	}
}

// TestAnswerSharesValidation is the share path's argument table: whatever a
// replica is sent, AnswerShares answers with the selected pages' XOR or an
// error — a hostile frame must never reach the kernel and panic there.
func TestAnswerSharesValidation(t *testing.T) {
	const pagesN, pageSize = 24, 32
	f := pagefile.NewFile("F", pageSize)
	for i := 0; i < pagesN; i++ {
		f.MustAppendPage(bytes.Repeat([]byte{byte(i + 1)}, pageSize))
	}
	db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{f}}
	plain, err := NewServer(db, costmodel.Default(), PlainStores)
	if err != nil {
		t.Fatal(err)
	}
	xor, err := NewServer(db, costmodel.Default(), XORStores)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ShareCapable() || !xor.ShareCapable() {
		t.Fatalf("ShareCapable: plain %v, xorpir %v", plain.ShareCapable(), xor.ShareCapable())
	}

	const selBytes = (pagesN + 7) / 8
	sel := func(n int, pages ...int) []byte {
		s := make([]byte, n)
		for _, p := range pages {
			s[p/8] |= 1 << (p % 8)
		}
		return s
	}
	bufs := func(sizes ...int) [][]byte {
		dst := make([][]byte, len(sizes))
		for i, n := range sizes {
			dst[i] = make([]byte, n)
		}
		return dst
	}
	for _, tc := range []struct {
		name string
		srv  *Server
		file string
		sels [][]byte
		dst  [][]byte
		ok   bool
	}{
		{"two selectors", xor, "F", [][]byte{sel(selBytes, 2), sel(selBytes, 0, 23)}, bufs(pageSize, pageSize), true},
		{"roomy buffer", xor, "F", [][]byte{sel(selBytes, 2)}, bufs(pageSize + 8), true},
		{"empty batch", xor, "F", nil, nil, true},
		{"unknown file", xor, "nope", [][]byte{sel(selBytes, 2)}, bufs(pageSize), false},
		{"non-share store", plain, "F", [][]byte{sel(selBytes, 2)}, bufs(pageSize), false},
		{"too few buffers", xor, "F", [][]byte{sel(selBytes, 2), sel(selBytes, 3)}, bufs(pageSize), false},
		{"too many buffers", xor, "F", [][]byte{sel(selBytes, 2)}, bufs(pageSize, pageSize), false},
		{"short selector", xor, "F", [][]byte{sel(selBytes-1, 2)}, bufs(pageSize), false},
		{"long selector", xor, "F", [][]byte{sel(selBytes+1, 2)}, bufs(pageSize), false},
		{"short buffer", xor, "F", [][]byte{sel(selBytes, 2), sel(selBytes, 3)}, bufs(pageSize, pageSize-1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.srv.AnswerShares(context.Background(), tc.file, tc.sels, tc.dst)
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
		})
	}

	// An accepted batch carries the XOR of the selected pages.
	dst := bufs(pageSize)
	if err := xor.AnswerShares(context.Background(), "F", [][]byte{sel(selBytes, 0, 23)}, dst); err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat([]byte{1 ^ 24}, pageSize); !bytes.Equal(dst[0], want) {
		t.Fatalf("share answer %x, want %x", dst[0][:4], want[:4])
	}

	// An accepted batch reaches the store as one AnswerShares call carrying
	// every selector, however many pool workers are free.
	for _, workers := range []int{1, 3, 4} {
		var cs *countingShares
		srv, err := NewServer(db, costmodel.Default(), func(r pagefile.Reader) (pir.Store, error) {
			x, err := pir.NewXORPIR(r)
			cs = &countingShares{XORPIR: x}
			return cs, err
		}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		sels := [][]byte{sel(selBytes, 0), sel(selBytes, 5, 6), sel(selBytes, 23)}
		if err := srv.AnswerShares(context.Background(), "F", sels, bufs(pageSize, pageSize, pageSize)); err != nil {
			t.Fatal(err)
		}
		if len(cs.calls) != 1 || cs.calls[0] != len(sels) {
			t.Errorf("workers=%d: store share calls %v, want one carrying %d selectors", workers, cs.calls, len(sels))
		}
	}
}

// countingShares wraps a real XORPIR store, keeping the selector count of
// every AnswerShares call it receives.
type countingShares struct {
	*pir.XORPIR
	calls []int
}

func (c *countingShares) AnswerShares(ctx context.Context, sels [][]byte, dst [][]byte) error {
	c.calls = append(c.calls, len(sels))
	return c.XORPIR.AnswerShares(ctx, sels, dst)
}
