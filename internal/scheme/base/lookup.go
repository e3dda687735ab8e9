package base

import (
	"fmt"

	"repro/internal/pagefile"
)

// LookupEntry locates one network-index record: the F_i page where the
// record starts, and its ordinal among the records beginning in that page.
// F_l is a dense index over F_i sorted on composite key (i,j) (§5.3); pages
// are packed, so a division maps a pair index straight to its F_l page.
type LookupEntry struct {
	Page     uint32
	RecIndex uint16
}

// LookupEntrySize is the on-page footprint of one entry.
const LookupEntrySize = 6

// LookupEntriesPerPage returns how many entries one F_l page holds.
func LookupEntriesPerPage(pageSize int) int { return pageSize / LookupEntrySize }

// BuildLookup builds F_l from the index builder's output (IndexBuilder.
// Finish): per network-index record in pair-index order, its span's first
// page and its ordinal among the records starting there.
func BuildLookup(pageSize int, spans []pagefile.Span, ordinals []uint16) (*pagefile.File, error) {
	per := LookupEntriesPerPage(pageSize)
	if per == 0 {
		return nil, fmt.Errorf("base: page size %d below a single look-up entry", pageSize)
	}
	file := pagefile.NewFile(FileLookup, pageSize)
	for start := 0; start < len(spans); start += per {
		end := min(start+per, len(spans))
		e := pagefile.NewEnc((end - start) * LookupEntrySize)
		for k := start; k < end; k++ {
			e.U32(uint32(spans[k].Page))
			e.U16(ordinals[k])
		}
		if _, err := file.AppendPage(e.Bytes()); err != nil {
			return nil, err
		}
	}
	if len(spans) == 0 { // keep the file non-empty so PIR metadata is sane
		if _, err := file.AppendPage(nil); err != nil {
			return nil, err
		}
	}
	return file, nil
}

// LookupPageFor returns the F_l page that holds the entry of pairIdx.
func LookupPageFor(pairIdx, entriesPerPage int) int { return pairIdx / entriesPerPage }

// ParseLookupEntry extracts pairIdx's entry from its F_l page.
func ParseLookupEntry(pageData []byte, pairIdx, entriesPerPage int) (LookupEntry, error) {
	off := (pairIdx % entriesPerPage) * LookupEntrySize
	if off+LookupEntrySize > len(pageData) {
		return LookupEntry{}, fmt.Errorf("base: look-up entry %d beyond page", pairIdx)
	}
	d := pagefile.NewDec(pageData[off : off+LookupEntrySize])
	le := LookupEntry{Page: d.U32(), RecIndex: d.U16()}
	return le, d.Err()
}
