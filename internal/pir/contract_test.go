package pir

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
)

// TestStoreInterfaceCompliance is the one table every store is held to: what
// Store.ReadBatchInto promises, checked the same way for each flavour.
func TestStoreInterfaceCompliance(t *testing.T) {
	const n, ps = 8, 4
	pages := makePages(n, ps, 12)

	xorpir := func(width int) func() (Store, error) {
		return func() (Store, error) {
			x, err := NewXORPIR(src(pages, ps))
			if err == nil && setWidth(x, width) != width {
				err = errors.New("scan width not honoured")
			}
			return x, err
		}
	}
	stores := []struct {
		name string
		new  func() (Store, error)
	}{
		{name: "Plain", new: func() (Store, error) { return NewPlain(src(pages, ps)), nil }},
		{name: "XORPIR", new: xorpir(1)},
		{name: "XORPIR_parallel", new: xorpir(3)},
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
