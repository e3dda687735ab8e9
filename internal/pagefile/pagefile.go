// Package pagefile provides the equal-sized-block storage model of §3.1: the
// LBS organizes the graph data and all indexing information into files of
// fixed-size pages, and the PIR interface retrieves exactly one page at a
// time. A File keeps its pages in one buffer: the build step's, or a
// read-only mapping of a saved container (the paper notes the framework
// applies unchanged to disk, SSD or RAM storage).
package pagefile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// DefaultPageSize is the 4 KByte disk page of Table 2.
const DefaultPageSize = 4096

// File is a named sequence of equal-sized pages, kept back to back in one
// buffer: page i is bytes [i*pageSize, (i+1)*pageSize). A page never changes
// once appended, so the slices Page returns stay valid across later appends
// (a growing buffer leaves them on the old backing array), and a reader may
// view the whole run in place (the XOR-PIR arena does). The Files of an
// opened container are views of its read-only mapping; an append to one
// copies its pages to the heap first.
type File struct {
	name     string
	pageSize int
	data     []byte
}

// NewFile returns an empty file.
func NewFile(name string, pageSize int) *File {
	if pageSize <= 0 {
		panic(fmt.Sprintf("pagefile: page size %d", pageSize))
	}
	return &File{name: name, pageSize: pageSize}
}

// Name returns the file name (e.g. "Fd", "Fi").
func (f *File) Name() string { return f.name }

// PageSize returns the page size in bytes.
func (f *File) PageSize() int { return f.pageSize }

// NumPages returns the current page count.
func (f *File) NumPages() int { return len(f.data) / f.pageSize }

// Size returns the total file size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// AppendPage adds a page, zero-padding (or rejecting oversized) data, and
// returns its page number.
func (f *File) AppendPage(data []byte) (int, error) {
	if len(data) > f.pageSize {
		return 0, fmt.Errorf("pagefile %s: page data %d bytes > page size %d", f.name, len(data), f.pageSize)
	}
	n := f.NumPages()
	f.data = append(f.data, data...)
	f.data = append(f.data, make([]byte, f.pageSize-len(data))...)
	return n, nil
}

// MustAppendPage is AppendPage for construction code whose inputs are sized
// by construction.
func (f *File) MustAppendPage(data []byte) int {
	n, err := f.AppendPage(data)
	if err != nil {
		panic(err)
	}
	return n
}

// Page returns page i. The caller must not mutate the result. Its capacity
// ends with the page, so an append to it copies instead of writing into the
// next page.
func (f *File) Page(i int) ([]byte, error) {
	if n := f.NumPages(); i < 0 || i >= n {
		return nil, fmt.Errorf("pagefile %s: page %d of %d", f.name, i, n)
	}
	lo, hi := i*f.pageSize, (i+1)*f.pageSize
	return f.data[lo:hi:hi], nil
}

// Checksum returns a CRC32 over all pages; opening a container compares it
// with the file-table CRC.
func (f *File) Checksum() uint32 {
	return crc32.ChecksumIEEE(f.data)
}

// Enc is an append-only binary record encoder (little endian, fixed width).
// Schemes use it to lay out page contents.
type Enc struct{ buf []byte }

// NewEnc returns an encoder with the given capacity hint.
func NewEnc(capacity int) *Enc { return &Enc{buf: make([]byte, 0, capacity)} }

// Reset clears the encoder for reuse, keeping its backing array — the
// serving hot path encodes every batch response into one pooled encoder
// instead of allocating per frame. Bytes returned by earlier Bytes calls
// alias the array and are invalidated.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the current encoded length.
func (e *Enc) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Enc) U8(v uint8) *Enc { e.buf = append(e.buf, v); return e }

// U16 appends a uint16.
func (e *Enc) U16(v uint16) *Enc {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
	return e
}

// U32 appends a uint32.
func (e *Enc) U32(v uint32) *Enc {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	return e
}

// U64 appends a uint64.
func (e *Enc) U64(v uint64) *Enc {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	return e
}

// F64 appends a float64.
func (e *Enc) F64(v float64) *Enc { return e.U64(math.Float64bits(v)) }

// Raw appends bytes verbatim.
func (e *Enc) Raw(b []byte) *Enc { e.buf = append(e.buf, b...); return e }

// UVarint appends an unsigned varint (LEB128, as encoding/binary).
func (e *Enc) UVarint(v uint64) *Enc {
	e.buf = binary.AppendUvarint(e.buf, v)
	return e
}

// Varint appends a signed varint (zigzag, as encoding/binary).
func (e *Enc) Varint(v int64) *Enc {
	e.buf = binary.AppendVarint(e.buf, v)
	return e
}

// UVarintLen returns the encoded size of v, for record sizing.
func UVarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintLen returns the encoded size of the zigzag varint of v.
func VarintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return UVarintLen(uv)
}

// Dec decodes records written by Enc. It is error-latching: after the first
// overrun every accessor returns zero and Err reports the failure, so decode
// sequences stay linear without per-call error checks.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Reset re-points the decoder at buf and clears its state, so one decoder
// can be reused across frames without allocating.
func (d *Dec) Reset(buf []byte) { d.buf, d.off, d.err = buf, 0, nil }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns how many bytes are left.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

func (d *Dec) fail(n int) {
	if d.err == nil {
		d.err = fmt.Errorf("pagefile: decode overrun at offset %d (+%d of %d)", d.off, n, len(d.buf))
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail(n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a uint16.
func (d *Dec) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Raw reads n bytes verbatim.
func (d *Dec) Raw(n int) []byte { return d.take(n) }

// UVarint reads an unsigned varint.
func (d *Dec) UVarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(1)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(1)
		return 0
	}
	d.off += n
	return v
}
