// Package pir provides the private information retrieval building block of
// §2.2 and §3.2. The paper's schemes treat PIR as a black box with one
// operation — retrieve page i of file F without the server learning i — and
// this package supplies that box behind one contract, Store, in the two
// flavours a daemon serves:
//
//   - Plain: no privacy, reads straight off the page source. The paper runs
//     its PIR on an IBM 4764 SCP and simulates the timing; so does this repo
//     (costmodel charges every Plain read the SCP's analytic cost), which is
//     how the paper's tables are reproduced.
//   - XORPIR: the classic two-server information-theoretic PIR of Chor,
//     Goldreich, Kushilevitz & Sudan [4] — the one real PIR protocol served,
//     in one process (ReadBatchInto plays both servers) or split across two
//     replica daemons (ShareAnswerer).
//
// The serving layer (lbs.Server) hands every batch to its store whole, in
// one call on one pool slot. XORPIR answers a whole batch in one pass over
// the file, fanned across as many goroutines as its scan width, which it
// works out once from GOMAXPROCS and the file's size (ScanWorkers reports
// it). Everything a call works in — the batch's selector and accumulator
// rows, a bucket table per slot of the pass, the pass's partials — is one
// scan, taken off a bounded per-store list for the call and put back when
// it returns; the listed scans' tables and partials together stay within
// 64 MiB per store. It additionally shows two optional faces, which the serving layer
// probes once at host time: ShareAnswerer (the replica half of two-server
// fleet mode) and ScanStats (work accounting, which Plain shows too).
package pir

import (
	"context"
	"fmt"

	"repro/internal/pagefile"
)

// Store is the PIR contract the serving layer programs against: retrieve
// pages by index, with the backing server(s) learning nothing about the
// indices. lbs.Server makes one ReadBatchInto call per batch, holding one
// slot of its worker pool, and every store is safe for concurrent use:
// several connections' batches may read the same store at the same time,
// as many as the pool has slots: the pool bounds store calls, not what one
// call does. A pass's width is the store's own — XORPIR fixes it at
// construction — and the goroutines of a parallel pass live for that one
// pass.
//
// Both stores read without touching mutable state: Plain's page source and
// XORPIR's arena are never written (the arena may be the source's own pages,
// which the pagefile.Reader contract keeps unchanged while held).
type Store interface {
	// NumPages returns the logical file length. Public information.
	NumPages() int
	// PageSize returns the page size in bytes. Public information.
	PageSize() int
	// ReadBatchInto writes the content of logical page pages[i] into dst[i],
	// in request order. dst must hold len(pages) buffers of at least
	// PageSize bytes each; a batch with a mismatched buffer count or an
	// out-of-range page is rejected before anything is written. The daemon
	// takes the buffers from a bounded free list, so a steady-state remote
	// query allocates nothing on the page path.
	//
	// Implementations check ctx at read boundaries — between individual
	// page retrievals (or file passes), never inside one — so a cancelled
	// batch stops promptly but each page read that started runs to
	// completion: the serving layer records fetches all-or-nothing, keeping
	// a cancelled query's server-visible trace a prefix of a full one.
	ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error
}

// ShareAnswerer is implemented by stores that can answer one half of a
// two-server XOR PIR query: given client-supplied selector bitvectors (one
// bit per page), return per selector the XOR of the pages whose bits are
// set — without ever learning, or being able to learn, which page the
// client wants. This is the server side of fleet mode: the client splits
// each query into two shares and sends each to a different replica
// process, so reconstruction happens only client-side. A single scan with
// k accumulators answers a k-selector batch, exactly like XORPIR's
// ReadBatchInto — but at half the work, since that must scan for both
// logical servers.
type ShareAnswerer interface {
	// SelectorBytes returns the required selector length: one bit per page,
	// rounded up to whole bytes. Public information.
	SelectorBytes() int
	// AnswerShares writes, for each selector sels[i], the XOR of the
	// selected pages into dst[i] (PageSize bytes each). Bits beyond
	// NumPages are ignored. Safe for concurrent use.
	AnswerShares(ctx context.Context, sels [][]byte, dst [][]byte) error
}

// Read retrieves one page into a fresh buffer — the allocating convenience
// over ReadBatchInto for tests, demos and benchmarks.
func Read(s Store, page int) ([]byte, error) {
	out, err := ReadBatch(context.Background(), s, []int{page})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ReadBatch retrieves the given pages into fresh buffers cut from one flat
// allocation, in request order.
func ReadBatch(ctx context.Context, s Store, pages []int) ([][]byte, error) {
	ps := s.PageSize()
	out := sliceRows(make([][]byte, 0, len(pages)), make([]byte, len(pages)*ps), ps)
	if err := s.ReadBatchInto(ctx, pages, out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkBatch is the argument check every ReadBatchInto opens with, so a
// rejected batch has written nothing: one buffer per page, every page index
// in range.
func checkBatch(numPages int, pages []int, dst [][]byte) error {
	if len(dst) != len(pages) {
		return fmt.Errorf("pir: %d buffers for %d pages", len(dst), len(pages))
	}
	for _, p := range pages {
		if p < 0 || p >= numPages {
			return fmt.Errorf("pir: page %d of %d", p, numPages)
		}
	}
	return nil
}

// Plain is a non-private Store: reads delegate directly to the underlying
// page source (a build's file, or a view of an opened container's
// read-only mapping).
// The obfuscation baseline and build-time verification use it; it also
// demonstrates that the schemes are agnostic to the PIR implementation
// behind the interface.
type Plain struct {
	src pagefile.Reader
	scanCounters
}

// NewPlain wraps a page source in a Plain store (use pagefile.SlicePages
// for a raw in-memory page slice).
func NewPlain(src pagefile.Reader) *Plain { return &Plain{src: src} }

// ReadBatchInto implements Store: page contents are copied into the caller's
// buffers. Safe for concurrent use: Reader implementations are
// concurrency-safe and the page set is immutable.
func (p *Plain) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	ps := p.src.PageSize()
	if err := checkBatch(p.src.NumPages(), pages, dst); err != nil {
		return err
	}
	for i, pg := range pages {
		if err := ctx.Err(); err != nil {
			return err
		}
		data, err := p.src.Page(pg)
		if err != nil {
			return err
		}
		p.recordScan(1, 1) // a plain read touches exactly the requested page
		copy(dst[i][:ps], data)
	}
	return nil
}

// NumPages returns the page count.
func (p *Plain) NumPages() int { return p.src.NumPages() }

// PageSize returns the page size.
func (p *Plain) PageSize() int { return p.src.PageSize() }

// The contract and the optional faces, enforced at compile time.
var (
	_ Store = (*Plain)(nil)
	_ Store = (*XORPIR)(nil)

	_ ShareAnswerer = (*XORPIR)(nil)
)
