package pir

import "sync/atomic"

// ScanStats is the optional work-accounting face of a store: cumulative
// totals of the server-side work its reads performed since construction.
// The serving layer exports them as per-file counters, and the scan
// amortization ratio (pages scanned / pages served) is the headline
// efficiency metric of the batched single-scan path.
//
// Both totals are data-independent — they are functions of the number and
// shape of the batches answered, never of which pages were requested — so
// exporting them is Theorem-1-clean by construction.
type ScanStats interface {
	// ScanStats returns the pages-equivalent work performed (pages read, or
	// full-file passes expressed in pages) and the number of server passes
	// (scans) that performed it.
	ScanStats() (pagesScanned, scans uint64)
}

// scanCounters is the embeddable implementation: two atomics, recorded on
// the read path without locks or allocation.
type scanCounters struct {
	pagesScanned atomic.Uint64
	scans        atomic.Uint64
}

// recordScan accounts one server pass touching the given pages-equivalent
// work.
func (c *scanCounters) recordScan(pages, scans uint64) {
	c.pagesScanned.Add(pages)
	c.scans.Add(scans)
}

// ScanStats implements the ScanStats interface.
func (c *scanCounters) ScanStats() (pagesScanned, scans uint64) {
	return c.pagesScanned.Load(), c.scans.Load()
}

// The stores that account their work, enforced at compile time.
var (
	_ ScanStats = (*Plain)(nil)
	_ ScanStats = (*XORPIR)(nil)
)
