package pagefile

import "sync"

// PageList is a bounded free list of page buffers, safe for concurrent use;
// its zero value is an empty list. The daemon keeps two per server, one for
// the buffers its fetches are answered from and one for the buffers its
// request frames are read into, and the remote client one per process for
// the buffers its reply frames are read into.
//
// What a list keeps is live heap, and live heap raises the collector's goal
// and the process's resident memory, so it keeps buffers up to
// maxListedBytes in all and at most maxListedBufs of them. It hands out the
// best fit: the smallest listed buffer that holds the request, else a new
// one of exactly the size asked. A one-page request then does not take a
// quota-sized buffer, and a quota-sized request finds one as long as no
// other holds it; a request that overlaps it allocates its own, which the
// collector takes back once the list has no room for it.
type PageList struct {
	mu    sync.Mutex
	free  [][]byte
	bytes int // capacity of the listed buffers, in bytes
}

// maxListedBytes is the buffer bytes a list keeps: one CI Fd quota of 52
// 4-KB pages, or a loopback CI query's reply frames, and the small buffers
// of the one- to eight-page quotas around it. A larger budget kept more of
// the process resident than it saved in collections.
const maxListedBytes = 256 << 10

// maxListedBufs bounds how many buffers a list keeps, and so the length of
// the best-fit scan; an unused slot costs a slice header.
const maxListedBufs = 64

// Get returns the smallest listed buffer of at least need bytes, cut to
// need, or a new one of exactly need bytes.
func (l *PageList) Get(need int) []byte {
	l.mu.Lock()
	best := -1
	for i, b := range l.free {
		if cap(b) >= need && (best < 0 || cap(b) < cap(l.free[best])) {
			best = i
			if cap(b) == need {
				break // nothing fits better
			}
		}
	}
	if best < 0 {
		l.mu.Unlock()
		return make([]byte, need)
	}
	b := l.free[best]
	last := len(l.free) - 1
	l.free[best], l.free[last] = l.free[last], nil
	l.free = l.free[:last]
	l.bytes -= cap(b)
	l.mu.Unlock()
	return b[:need]
}

// Put lists b, unless listing it would take the list past its budget. The
// caller must hold no view of b afterwards: the next Get may hand it out.
func (l *PageList) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bytes+cap(b) > maxListedBytes || len(l.free) == maxListedBufs {
		return
	}
	l.free = append(l.free, b[:0])
	l.bytes += cap(b)
}
