package pagefile

// Packer implements the no-straddle placement rule of §5.3 for the network
// index file F_i: records are placed contiguously into pages in key order,
// but a record smaller than a page never stretches over two pages — if the
// free space in the current page cannot host the next record, that space is
// left unutilized and the record starts in the next page. A record larger
// than a page starts at a page boundary so it spans exactly
// ceil(len/pageSize) pages.
type Packer struct {
	file    *File
	current []byte
	// maxPages is the most pages any appended record spans.
	maxPages int
}

// Span locates a packed record inside its file.
type Span struct {
	Page  int // first page number
	Pages int // number of pages spanned
	Off   int // byte offset of the record within its first page
	Len   int // record length in bytes
}

// NewPacker returns a packer appending to file.
func NewPacker(file *File) *Packer {
	return &Packer{file: file}
}

// Append places one record and returns its span.
func (p *Packer) Append(rec []byte) Span {
	ps := p.file.PageSize()
	if len(rec) > ps {
		// Large record: flush, then span whole pages from a boundary.
		p.flush()
		first := p.file.NumPages()
		span := Span{Page: first, Pages: (len(rec) + ps - 1) / ps, Off: 0, Len: len(rec)}
		for off := 0; off < len(rec); off += ps {
			end := off + ps
			if end > len(rec) {
				end = len(rec)
			}
			p.file.MustAppendPage(rec[off:end])
		}
		p.maxPages = max(p.maxPages, span.Pages)
		return span
	}
	if len(p.current)+len(rec) > ps {
		p.flush()
	}
	// The open page becomes the file's next page when it is flushed.
	span := Span{Page: p.file.NumPages(), Pages: 1, Off: len(p.current), Len: len(rec)}
	p.current = append(p.current, rec...)
	p.maxPages = max(p.maxPages, 1)
	return span
}

// CurrentFree returns the free bytes left in the open page; compression code
// uses it to decide whether a delta-coded record still fits.
func (p *Packer) CurrentFree() int {
	return p.file.PageSize() - len(p.current)
}

// Flush closes the open page, if any.
func (p *Packer) Flush() { p.flush() }

func (p *Packer) flush() {
	if len(p.current) > 0 {
		p.file.MustAppendPage(p.current)
		p.current = nil
	}
}

// MaxSpanPages returns the largest Pages value over all records — the value
// the query plan uses to fix per-round retrieval counts (§5.4: "as many
// pages from F_i as the maximum number of pages spanned by any S_i,j set").
func (p *Packer) MaxSpanPages() int { return p.maxPages }
