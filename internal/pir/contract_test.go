package pir

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestStoreInterfaceCompliance is the one table every store is held to: what
// Store.ReadBatchInto promises, checked the same way for each flavour.
func TestStoreInterfaceCompliance(t *testing.T) {
	// KOPIR retrieves bit by bit, so the shared geometry is small.
	const n, ps = 8, 4
	pages := makePages(n, ps, 12)

	stores := []struct {
		name string
		new  func() (Store, error)
		// lock is the serial stores' lock, for the cancel-while-held check.
		lock func(Store) serialLock
	}{
		{name: "Plain", new: func() (Store, error) { return NewPlain(src(pages, ps)), nil }},
		{name: "XORPIR", new: func() (Store, error) { return NewXORPIR(src(pages, ps)) }},
		{name: "KOPIR", new: func() (Store, error) { return NewKOPIR(src(pages, ps), 128) }},
		{name: "SqrtORAM", new: func() (Store, error) { return NewSqrtORAM(src(pages, ps), 3) },
			lock: func(s Store) serialLock { return s.(*SqrtORAM).lock }},
		{name: "PyramidORAM", new: func() (Store, error) { return NewPyramidORAM(src(pages, ps)) },
			lock: func(s Store) serialLock { return s.(*PyramidORAM).lock }},
		{name: "ShardedORAM", new: func() (Store, error) { return NewShardedORAM(src(pages, ps), 3, 5) }},
	}

	const sentinel = 0xA5
	buffers := func(k int) [][]byte {
		dst := make([][]byte, k)
		for i := range dst {
			dst[i] = bytes.Repeat([]byte{sentinel}, ps)
		}
		return dst
	}
	untouched := func(dst [][]byte) bool {
		for _, b := range dst {
			if !bytes.Equal(b, bytes.Repeat([]byte{sentinel}, ps)) {
				return false
			}
		}
		return true
	}
	// Repeated (3,3 and 0…0) and adjacent (3,4) indices, out of file order.
	batch := []int{n - 1, 0, 3, 3, 4, 0}
	readAndCheck := func(s Store) error {
		dst := buffers(len(batch))
		if err := s.ReadBatchInto(context.Background(), batch, dst); err != nil {
			return err
		}
		for i, p := range batch {
			if !bytes.Equal(dst[i], pages[p]) {
				return errors.New("answers are not the source pages in request order")
			}
		}
		return nil
	}

	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.new()
			if err != nil {
				t.Fatal(err)
			}
			if s.NumPages() != n || s.PageSize() != ps {
				t.Fatalf("meta: %d pages of %d bytes, want %d of %d", s.NumPages(), s.PageSize(), n, ps)
			}
			if err := readAndCheck(s); err != nil {
				t.Fatal(err)
			}

			// Rejected batches are errors that write nothing.
			for _, bad := range []struct {
				name  string
				pages []int
				dst   [][]byte
			}{
				{"too few buffers", []int{0, 1}, buffers(1)},
				{"too many buffers", []int{0}, buffers(2)},
				{"page past the end", []int{0, n}, buffers(2)},
				{"negative page", []int{1, -1}, buffers(2)},
			} {
				if err := s.ReadBatchInto(context.Background(), bad.pages, bad.dst); err == nil {
					t.Errorf("%s: accepted", bad.name)
				}
				if !untouched(bad.dst) {
					t.Errorf("%s: rejected batch wrote into its buffers", bad.name)
				}
			}

			// A dead context is reported as such.
			dead, cancel := context.WithCancel(context.Background())
			cancel()
			if err := s.ReadBatchInto(dead, batch, buffers(len(batch))); !errors.Is(err, context.Canceled) {
				t.Errorf("dead ctx: err = %v, want context.Canceled", err)
			}

			// A batch waiting for a serial store's lock gives up when its
			// context dies, instead of blocking until the holder finishes.
			if tc.lock != nil {
				lock := tc.lock(s)
				lock <- struct{}{}
				ctx, cancel := context.WithCancel(context.Background())
				waiter := make(chan error, 1)
				go func() { waiter <- s.ReadBatchInto(ctx, batch, buffers(len(batch))) }()
				cancel()
				select {
				case err := <-waiter:
					if !errors.Is(err, context.Canceled) {
						t.Errorf("waiting batch: err = %v, want context.Canceled", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("cancelled batch still waiting on the serial lock")
				}
				<-lock
			}

			// Safe for concurrent use (the race detector guards the rest).
			var wg sync.WaitGroup
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := readAndCheck(s); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		})
	}
}
