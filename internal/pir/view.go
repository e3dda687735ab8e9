package pir

import (
	"encoding/binary"
	"unsafe"

	"repro/internal/pagefile"
)

// littleEndian reports whether a word read in place from page bytes equals
// the binary.LittleEndian decoding packWords stores.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// viewWords returns the pages of src as one []uint64 that shares their
// memory, or nil when the arena has to copy them. A view needs all of:
//
//   - src is a *pagefile.File, which keeps its pages back to back in one
//     buffer. Adjacent addresses alone cannot tell that buffer from pages
//     allocated one by one that the allocator happened to place side by
//     side, and a view spanning several allocations would keep only the
//     first one alive;
//   - the slices Page returns form one contiguous run of full-length pages;
//   - the run is 8-byte aligned and the page size a multiple of 8, so page i
//     is exactly words [i*wpp, (i+1)*wpp);
//   - the host is little-endian.
//
// The pages stay unchanged while held (the pagefile.Reader contract). The
// view holds a build's File buffer alive itself; a File of an opened
// container is a view of its read-only mapping, which stays valid until the
// container is closed, so the store must not outlive it.
func viewWords(src pagefile.Reader) []uint64 {
	f, ok := src.(*pagefile.File)
	n, ps := src.NumPages(), src.PageSize()
	if !ok || n == 0 || ps%8 != 0 || !littleEndian {
		return nil
	}
	first, err := f.Page(0)
	if err != nil {
		return nil
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(first)))
	if base%8 != 0 {
		return nil
	}
	for i := 0; i < n; i++ {
		p, err := f.Page(i)
		if err != nil || len(p) != ps || uintptr(unsafe.Pointer(unsafe.SliceData(p))) != base+uintptr(i*ps) {
			return nil
		}
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(first))), n*ps/8)
}

// wordsInPlace returns the first wpp words of b as a []uint64 sharing its
// memory, or nil unless b holds 8·wpp bytes from an 8-byte-aligned start on
// a little-endian host — where word i, read in place, is what unpackWords
// would write to bytes [8i, 8i+8).
func wordsInPlace(b []byte, wpp int) []uint64 {
	if !littleEndian || wpp == 0 || len(b) < 8*wpp || uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 != 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), wpp)
}
