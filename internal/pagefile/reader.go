package pagefile

import "fmt"

// Reader is the read-only page access the serving path programs against.
// *File (a build step's output, or a view of an opened container's mapping)
// and *PageSlice (an adapter over a raw page slice) satisfy it, so built and
// opened databases serve through identical code. Implementations must be
// safe for concurrent Page calls once serving starts, and callers must not
// mutate returned pages. A page Page returns stays valid and unchanged for
// as long as the caller holds it (for an opened container's File, while the
// container is open): a store may keep the slices themselves instead of a
// copy.
type Reader interface {
	// Name returns the file name (e.g. "Fd", "Fi").
	Name() string
	// PageSize returns the page size in bytes.
	PageSize() int
	// NumPages returns the file length in pages.
	NumPages() int
	// Page returns page i. The caller must not mutate the result, and the
	// result stays valid and unchanged while the caller holds it.
	Page(i int) ([]byte, error)
}

var (
	_ Reader = (*File)(nil)
	_ Reader = (*PageSlice)(nil)
)

// Bytes returns a reader's total size in bytes (every page is full-sized in
// the fixed-block model of §3.1).
func Bytes(r Reader) int64 { return int64(r.NumPages()) * int64(r.PageSize()) }

// PageSlice adapts an in-memory page slice to the Reader interface without
// copying. The PIR stores and tests use it for page sets that never came
// from a build-step *File.
type PageSlice struct {
	name     string
	pageSize int
	pages    [][]byte
}

// SlicePages wraps pages in a PageSlice.
func SlicePages(name string, pageSize int, pages [][]byte) *PageSlice {
	return &PageSlice{name: name, pageSize: pageSize, pages: pages}
}

// Name implements Reader.
func (p *PageSlice) Name() string { return p.name }

// PageSize implements Reader.
func (p *PageSlice) PageSize() int { return p.pageSize }

// NumPages implements Reader.
func (p *PageSlice) NumPages() int { return len(p.pages) }

// Page implements Reader.
func (p *PageSlice) Page(i int) ([]byte, error) {
	if i < 0 || i >= len(p.pages) {
		return nil, fmt.Errorf("pagefile %s: page %d of %d", p.name, i, len(p.pages))
	}
	return p.pages[i], nil
}
