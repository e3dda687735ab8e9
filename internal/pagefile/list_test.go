package pagefile

import (
	"slices"
	"sync"
	"testing"
)

// same reports whether a and b share their backing array.
func same(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// listedCaps returns the capacities of the buffers l holds, sorted.
func listedCaps(l *PageList) []int {
	var caps []int
	for _, b := range l.free {
		caps = append(caps, cap(b))
	}
	slices.Sort(caps)
	return caps
}

// TestPageListGet: Get hands out the smallest listed buffer that holds the
// request, cut to the size asked — the first of equal exact fits, where the
// scan stops — and a new buffer of exactly that size when none does,
// leaving the list as it was.
func TestPageListGet(t *testing.T) {
	for _, c := range []struct {
		name   string
		listed []int // capacities put, in order
		need   int
		from   int   // index into listed of the buffer handed out; -1 for a new one
		left   []int // capacities still listed afterwards, sorted
	}{
		{"empty list", nil, 4096, -1, nil},
		{"best fit of three", []int{16384, 8192, 12288}, 5000, 1, []int{12288, 16384}},
		{"exact fit, the first of two", []int{8192, 4096, 4096, 2048}, 4096, 1, []int{2048, 4096, 8192}},
		{"exact fit beats a later bigger one", []int{4096, 8192}, 4096, 0, []int{8192}},
		{"nothing big enough", []int{1024, 2048}, 4096, -1, []int{1024, 2048}},
		{"zero bytes take the smallest", []int{2048, 512}, 0, 1, []int{2048}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var l PageList
			bufs := make([][]byte, len(c.listed))
			for i, n := range c.listed {
				bufs[i] = make([]byte, n)
				l.Put(bufs[i])
			}
			got := l.Get(c.need)
			if len(got) != c.need {
				t.Fatalf("Get(%d) returned %d bytes", c.need, len(got))
			}
			if c.from < 0 {
				if cap(got) != c.need {
					t.Errorf("Get(%d) with no fit: capacity %d, want a new buffer of exactly %d", c.need, cap(got), c.need)
				}
				for i, b := range bufs {
					if same(got, b) {
						t.Errorf("Get(%d) with no fit handed out listed buffer %d (%d bytes)", c.need, i, cap(b))
					}
				}
			} else if !same(got, bufs[c.from]) {
				t.Errorf("Get(%d) handed out a %d-byte buffer, want listed buffer %d (%d bytes)", c.need, cap(got), c.from, c.listed[c.from])
			}
			if left := listedCaps(&l); !slices.Equal(left, c.left) {
				t.Errorf("listed after Get: %v, want %v", left, c.left)
			}
			want := 0
			for _, n := range c.left {
				want += n
			}
			if l.bytes != want {
				t.Errorf("byte count %d after Get, want %d", l.bytes, want)
			}
		})
	}
}

// TestPageListPutBounds: Put refuses a buffer that would take the list past
// its byte budget or its buffer count, and ignores a zero-capacity slice.
// A refused buffer is never handed out again, so one huge request buffer
// does not stay resident after its request, and small buffers keep
// recycling beside it.
func TestPageListPutBounds(t *testing.T) {
	t.Run("byte budget", func(t *testing.T) {
		var l PageList
		huge := make([]byte, maxListedBytes+1)
		l.Put(huge)
		if len(l.free) != 0 || l.bytes != 0 {
			t.Fatalf("a buffer past the whole budget was listed: %v", listedCaps(&l))
		}
		for range 64 {
			b := l.Get(4096)
			if same(b, huge) {
				t.Fatal("the refused huge buffer was handed out")
			}
			l.Put(b)
		}
		if got := listedCaps(&l); !slices.Equal(got, []int{4096}) {
			t.Fatalf("small buffers do not recycle: listed %v, want one of 4096", got)
		}

		l = PageList{}
		half := maxListedBytes / 2
		l.Put(make([]byte, half))
		l.Put(make([]byte, half)) // exactly at the budget: listed
		l.Put(make([]byte, 1))    // one byte past it: refused
		if got := listedCaps(&l); !slices.Equal(got, []int{half, half}) || l.bytes != maxListedBytes {
			t.Fatalf("listed %v (%d bytes), want two of %d filling the budget", got, l.bytes, half)
		}
	})

	t.Run("count cap", func(t *testing.T) {
		var l PageList
		for range maxListedBufs + 1 {
			l.Put(make([]byte, 8))
		}
		if len(l.free) != maxListedBufs || l.bytes != 8*maxListedBufs {
			t.Fatalf("listed %d buffers (%d bytes), want the cap of %d", len(l.free), l.bytes, maxListedBufs)
		}
	})

	t.Run("zero capacity", func(t *testing.T) {
		var l PageList
		l.Put(nil)
		l.Put(make([]byte, 0))
		l.Put(make([]byte, 4)[4:]) // zero length, zero capacity left
		if len(l.free) != 0 || l.bytes != 0 {
			t.Fatalf("zero-capacity slices were listed: %v", listedCaps(&l))
		}
	})

	t.Run("listed cut to zero length", func(t *testing.T) {
		var l PageList
		l.Put(make([]byte, 100)[:37])
		if got := l.Get(100); len(got) != 100 || cap(got) != 100 {
			t.Fatalf("Get(100) after a Put cut to 37 bytes: len %d cap %d", len(got), cap(got))
		}
	})
}

// TestPageListConcurrent: goroutines taking and giving back buffers of
// mixed sizes at once, each writing its own pattern through the buffer it
// holds, never share a buffer and never read another's bytes, and the
// list's books stay within its bounds. Run under -race, any sharing shows
// as a race too.
func TestPageListConcurrent(t *testing.T) {
	var l PageList
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mark := byte(w + 1)
			for r := range rounds {
				n := 512 * (1 + (w+r)%9)
				b := l.Get(n)
				if len(b) != n {
					errs <- "Get returned the wrong length"
					return
				}
				for i := range b {
					b[i] = mark
				}
				for i := range b {
					if b[i] != mark {
						errs <- "a buffer held by one goroutine was written by another"
						return
					}
				}
				l.Put(b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	total := 0
	for _, b := range l.free {
		total += cap(b)
	}
	if total != l.bytes || l.bytes > maxListedBytes || len(l.free) > maxListedBufs {
		t.Errorf("after the run: %d buffers, %d bytes counted, %d listed; bounds %d buffers, %d bytes",
			len(l.free), l.bytes, total, maxListedBufs, maxListedBytes)
	}
}
