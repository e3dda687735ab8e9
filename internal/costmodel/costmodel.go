// Package costmodel implements the performance simulation of §7.1: the
// IBM 4764 secure co-processor, the Seagate disk, and the 3G client link of
// Table 2. The paper does not run on the card either — it "strictly
// simulates" its performance — and all reported response times derive from
// these parameters plus measured client-side computation.
package costmodel

import (
	"math"
	"time"

	"repro/internal/pagefile"
)

// Params carries the Table 2 system parameters.
type Params struct {
	PageSize  int           // disk page size (4 KByte)
	DiskSeek  time.Duration // 11 ms
	DiskRate  float64       // disk read/write, bytes/s (125 MB/s)
	SCPRate   float64       // SCP read/write, bytes/s (80 MB/s)
	CryptRate float64       // SCP encryption/decryption, bytes/s (10 MB/s)
	Bandwidth float64       // client link, bytes/s (48 KB/s)
	RTT       time.Duration // communication round-trip (700 ms)
	// SCPMemory bounds the PIR-supported file size: the protocol of [36]
	// needs c*sqrt(N) pages of SCP memory for an N-page file. With 32 MB
	// and c=10 this caps files at 2.5 GB, the limit quoted in §3.2/§7.1.
	SCPMemory int64
	SCPFactor float64 // the c in c*sqrt(N); typical value 10 (§3.2)
	// ShuffleK calibrates the amortized O(log^2 N) reorganization term of
	// the Williams–Sion pyramid so that one page retrieval from a 1 GB file
	// costs about one second, the figure quoted in §3.2.
	ShuffleK float64
}

// Default returns the Table 2 configuration.
func Default() Params {
	return Params{
		PageSize:  pagefile.DefaultPageSize,
		DiskSeek:  11 * time.Millisecond,
		DiskRate:  125 << 20,
		SCPRate:   80 << 20,
		CryptRate: 10 << 20,
		Bandwidth: 48 << 10,
		RTT:       700 * time.Millisecond,
		SCPMemory: 32 << 20,
		SCPFactor: 10,
		ShuffleK:  5.8,
	}
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// PIRFetch returns the simulated time to retrieve one page through the PIR
// interface from a file of filePages pages.
//
// Shape, following the pyramid construction of Williams & Sion [36]: a query
// touches one bucket per level (L = log2 N levels), each costing a seek plus
// streaming the page through the disk, the SCP I/O path and its crypto
// engine; on top of that, amortized reshuffling contributes O(log^2 N)
// page-encryptions per query. ShuffleK calibrates the constant so a 1 GB
// file (N = 262,144 pages of 4 KB) costs ≈ 1 s/page, matching §3.2.
func (p Params) PIRFetch(filePages int) time.Duration {
	if filePages < 2 {
		filePages = 2
	}
	levels := math.Ceil(math.Log2(float64(filePages)))
	b := float64(p.PageSize)
	perLevel := p.DiskSeek.Seconds() + b/p.DiskRate + b/p.SCPRate + b/p.CryptRate
	shuffle := p.ShuffleK * levels * levels * (b/p.CryptRate + b/p.DiskRate)
	return secondsToDuration(levels*perLevel + shuffle)
}

// PlainRead returns the unsecured disk time for reading n pages (one seek
// plus sequential transfer): the baseline the paper contrasts PIR against,
// and the disk component of the OBF server.
func (p Params) PlainRead(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	b := float64(p.PageSize) * float64(n)
	return p.DiskSeek + secondsToDuration(b/p.DiskRate)
}

// Transfer returns the client-link time for shipping n bytes.
func (p Params) Transfer(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return secondsToDuration(float64(n) / p.Bandwidth)
}

// MaxFileBytes returns the largest file the PIR interface supports: the SCP
// needs SCPFactor*sqrt(N) pages of memory for an N-page file.
func (p Params) MaxFileBytes() int64 {
	// memory = c * sqrt(N) * PageSize  =>  N = (memory / (c*PageSize))^2.
	n := float64(p.SCPMemory) / (p.SCPFactor * float64(p.PageSize))
	return int64(n*n) * int64(p.PageSize)
}

// SupportsFile reports whether a file of the given size is retrievable
// through the PIR interface.
func (p Params) SupportsFile(bytes int64) bool {
	return bytes <= p.MaxFileBytes()
}
