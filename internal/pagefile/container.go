package pagefile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// This file implements the persistent database container (".psdb"): the
// build-once / serve-many half of §3.1's storage model. A container is a
// single versioned file holding everything a scheme's build step produced —
// the public header blob and every page file — so a daemon can load a
// multi-hour build in milliseconds and serve its pages straight from a
// read-only mapping of the file. The header is the database's one
// description: its scheme and query plan are read from it, never stored
// beside it.
//
// Layout (all integers little endian):
//
//	[0:4)    magic "PSDB"
//	[4:6)    format version (u16), currently 2
//	[6:10)   meta length (u32)
//	[10:...) meta block (see below), then its CRC32-IEEE (u32)
//	...      zero padding up to the next multiple of dataAlign
//	...      data region: each file's pages back to back
//
// Meta block:
//
//	header    u32 length + bytes
//	fileCount u16
//	per file: u8 name length + name, u32 page size, u64 page count,
//	          u64 absolute offset of its data, u32 CRC32-IEEE of its data
//
// A version 1 meta block also held a scheme name (u8 length + bytes) before
// the header and an encoded query plan (u32 length + bytes) after it, both
// copies of what the header says; readers step over them.
//
// The meta CRC catches torn or truncated writes before any field is
// trusted; the per-file CRCs catch data-region corruption at open time.
// Readers take every file's position from its table offset, so containers
// written before the padding was introduced (data right after the meta
// CRC) open unchanged.

// ContainerMagic begins every container file.
const ContainerMagic = "PSDB"

// ContainerVersion is the current format version. Readers reject newer
// versions (a future format is unknowable) and accept all older ones,
// skipping version 1's scheme and plan copies.
const ContainerVersion = 2

const (
	containerPreamble = 4 + 2 + 4 // magic + version + meta length
	// maxMetaLen bounds the decoded metadata buffer: real containers carry
	// a few KB of header plus a handful of file-table entries, so anything
	// beyond this is a corrupt or hostile length field.
	maxMetaLen = 64 << 20
	// maxContainerFiles bounds the file table (schemes ship 1–3 files).
	maxContainerFiles = 4096
	// maxContainerPageSize bounds a declared page size (Table 2 uses 4 KB).
	maxContainerPageSize = 1 << 26
	// dataAlign aligns the start of the data region. A mapping starts on an
	// OS page boundary, so a file whose pages, and those of every file
	// before it, are a multiple of 8 bytes long is 8-byte aligned in memory
	// and the XOR-PIR arena views it in place.
	dataAlign = 4096
)

// ContainerSpec is everything WriteContainer persists.
type ContainerSpec struct {
	Header []byte
	Files  []Reader
}

// WriteContainer writes the spec as a container file at path. The write
// goes to a temporary sibling first and renames into place, so a crash
// never leaves a half-written file under the final name, and a daemon
// serving the old file keeps its mapping of the old contents.
func WriteContainer(path string, spec ContainerSpec) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteContainerTo(f, spec); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Sync before the rename: on many filesystems the rename becomes
	// durable before the data blocks do, and a power loss would otherwise
	// leave a truncated file under the final name.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteContainerTo writes the container encoding to w in file order. A
// checksum pass over every page comes first, so the meta block is complete
// before it is written and a short page is rejected before any byte is.
func WriteContainerTo(w io.Writer, spec ContainerSpec) error {
	metaLen, err := containerMetaLen(spec)
	if err != nil {
		return err
	}
	crcs, err := writeDataRegion(io.Discard, spec)
	if err != nil {
		return err
	}
	meta, err := encodeContainerMeta(spec, metaLen, crcs)
	if err != nil {
		return err
	}
	meta.U32(crc32.ChecksumIEEE(meta.Bytes()))
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(NewEnc(containerPreamble).Raw([]byte(ContainerMagic)).U16(ContainerVersion).U32(uint32(metaLen)).Bytes())
	bw.Write(meta.Bytes())
	bw.Write(make([]byte, dataStart(metaLen)-int64(containerPreamble+meta.Len())))
	if _, err := writeDataRegion(bw, spec); err != nil {
		return err
	}
	return bw.Flush()
}

// containerMetaLen validates the spec and sizes its meta block. The file
// table uses fixed-width fields, so the meta length — and with it every
// data offset — is known before any page is read.
func containerMetaLen(spec ContainerSpec) (int, error) {
	if len(spec.Files) > maxContainerFiles {
		return 0, fmt.Errorf("pagefile: %d files exceed the container limit of %d", len(spec.Files), maxContainerFiles)
	}
	metaLen := 4 + len(spec.Header) + 2
	for _, f := range spec.Files {
		if len(f.Name()) > 255 {
			return 0, fmt.Errorf("pagefile: file name %q too long", f.Name())
		}
		if f.PageSize() <= 0 || f.PageSize() > maxContainerPageSize {
			return 0, fmt.Errorf("pagefile: file %s page size %d", f.Name(), f.PageSize())
		}
		metaLen += 1 + len(f.Name()) + 4 + 8 + 8 + 4
	}
	return metaLen, nil
}

// dataStart is where the writer starts the data region: the first multiple
// of dataAlign after the meta block and its CRC.
func dataStart(metaLen int) int64 {
	end := int64(containerPreamble + metaLen + 4)
	return (end + dataAlign - 1) / dataAlign * dataAlign
}

// encodeContainerMeta renders the meta block; crcs holds one data-region
// CRC per file, in order.
func encodeContainerMeta(spec ContainerSpec, metaLen int, crcs []uint32) (*Enc, error) {
	meta := NewEnc(metaLen + 4)
	meta.U32(uint32(len(spec.Header))).Raw(spec.Header)
	meta.U16(uint16(len(spec.Files)))
	offset := dataStart(metaLen)
	for fi, f := range spec.Files {
		meta.U8(uint8(len(f.Name()))).Raw([]byte(f.Name()))
		meta.U32(uint32(f.PageSize()))
		meta.U64(uint64(f.NumPages()))
		meta.U64(uint64(offset))
		meta.U32(crcs[fi])
		offset += Bytes(f)
	}
	if meta.Len() != metaLen {
		return nil, fmt.Errorf("pagefile: internal error: meta %d bytes, sized %d", meta.Len(), metaLen)
	}
	return meta, nil
}

// writeDataRegion streams every file's pages to w, returning the per-file
// CRC32s computed along the way.
func writeDataRegion(w io.Writer, spec ContainerSpec) ([]uint32, error) {
	crcs := make([]uint32, len(spec.Files))
	for fi, f := range spec.Files {
		h := crc32.NewIEEE()
		for i := 0; i < f.NumPages(); i++ {
			p, err := f.Page(i)
			if err != nil {
				return nil, fmt.Errorf("pagefile: container write %s: %w", f.Name(), err)
			}
			// Short build pages (File pads on append, but Reader does not
			// promise it) would silently shift every later offset.
			if len(p) != f.PageSize() {
				return nil, fmt.Errorf("pagefile: container write %s: page %d is %d bytes, want %d",
					f.Name(), i, len(p), f.PageSize())
			}
			h.Write(p)
			if _, err := w.Write(p); err != nil {
				return nil, err
			}
		}
		crcs[fi] = h.Sum32()
	}
	return crcs, nil
}

// Container is an opened database container. Its Files are views of one
// read-only copy of the container's bytes — a mapping of the file, for
// OpenContainer — so serving code must keep the container open for as long
// as it serves them: after Close, touching a page a File returned faults the
// process.
type Container struct {
	Header []byte
	Files  []*File

	unmap func() error // nil once closed, or when nothing was mapped
}

// Close releases the mapping backing the container's Files. Calling it
// again is a no-op.
func (c *Container) Close() error {
	unmap := c.unmap
	c.unmap = nil
	if unmap == nil {
		return nil
	}
	return unmap()
}

// ContainerOption tunes OpenContainer / ReadContainer.
type ContainerOption func(*containerOpts)

type containerOpts struct {
	skipVerify bool
}

// WithoutDataVerify skips the per-file data-region CRC check at open time.
// The default full verification reads every data byte once sequentially,
// paging the whole file in — right for databases that fit a startup scan,
// but a deliberately larger-than-RAM container would turn "open" into a
// full disk pass; deployments that trust their storage (or verify out of
// band) opt out with this. Metadata is always verified.
func WithoutDataVerify() ContainerOption {
	return func(o *containerOpts) { o.skipVerify = true }
}

// OpenContainer maps a container file read-only and fully validates it:
// magic, version, meta CRC, file-table bounds, and (unless
// WithoutDataVerify) the CRC of every file's data region, so a corrupt
// database fails at load time rather than mid-query. The Files are views of
// the mapping, so the operating system's page cache holds the pages and a
// database need not fit in RAM.
//
// Replace a served container by writing a new file and renaming it into
// place, as WriteContainer does; never rewrite it in place. A mapping of a
// file that is truncated under it faults the process on the next read.
func OpenContainer(path string, opts ...ContainerOption) (*Container, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	c, err := ReadContainer(data, opts...)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("pagefile: %s: %w", path, err)
	}
	c.unmap = unmap
	return c, nil
}

// ReadContainer parses and validates a container held in data, with the
// same checks as OpenContainer. The returned Files are views of data, each
// cut with a full slice expression so an append to one copies instead of
// writing into data; data must stay unchanged while they are served.
func ReadContainer(data []byte, opts ...ContainerOption) (*Container, error) {
	var o containerOpts
	for _, opt := range opts {
		opt(&o)
	}

	size := int64(len(data))
	if size < containerPreamble {
		return nil, fmt.Errorf("container truncated: %d bytes", size)
	}
	d := NewDec(data[:containerPreamble])
	if string(d.Raw(4)) != ContainerMagic {
		return nil, fmt.Errorf("not a database container (bad magic)")
	}
	version := d.U16()
	if version == 0 || version > ContainerVersion {
		return nil, fmt.Errorf("container format version %d not supported (this build reads up to %d)", version, ContainerVersion)
	}
	metaLen := int64(d.U32())
	if metaLen > maxMetaLen || containerPreamble+metaLen+4 > size {
		return nil, fmt.Errorf("container truncated: meta block of %d bytes does not fit in %d-byte file", metaLen, size)
	}
	body := data[containerPreamble : containerPreamble+metaLen]
	sum := data[containerPreamble+metaLen : containerPreamble+metaLen+4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(sum) {
		return nil, fmt.Errorf("container meta block CRC mismatch (corrupt or truncated write)")
	}

	md := NewDec(body)
	c := &Container{}
	if version == 1 {
		md.Raw(int(md.U8())) // the scheme: the header names it
	}
	// The header is small and copied out of data, so it outlives Close.
	c.Header = append([]byte(nil), md.Raw(int(md.U32()))...)
	if version == 1 {
		md.Raw(int(md.U32())) // the plan: the header holds it
	}
	numFiles := int(md.U16())
	if numFiles > maxContainerFiles {
		return nil, fmt.Errorf("container declares %d files (limit %d)", numFiles, maxContainerFiles)
	}
	seen := make(map[string]bool, numFiles)
	for i := 0; i < numFiles; i++ {
		name := string(md.Raw(int(md.U8())))
		pageSize := int64(md.U32())
		numPages := md.U64()
		offset := md.U64()
		crc := md.U32()
		if md.Err() != nil {
			break // surfaced below
		}
		if name == "" || seen[name] {
			return nil, fmt.Errorf("container file table: empty or duplicate name %q", name)
		}
		seen[name] = true
		if pageSize <= 0 || pageSize > maxContainerPageSize {
			return nil, fmt.Errorf("container file %s: page size %d", name, pageSize)
		}
		if numPages > uint64(size)/uint64(pageSize) {
			return nil, fmt.Errorf("container file %s: %d pages of %d bytes exceed the %d-byte file", name, numPages, pageSize, size)
		}
		dataLen := int64(numPages) * pageSize
		if offset > uint64(size) || int64(offset) > size-dataLen {
			return nil, fmt.Errorf("container file %s: data region [%d, %d) outside the %d-byte file", name, offset, int64(offset)+dataLen, size)
		}
		end := int64(offset) + dataLen
		f := &File{name: name, pageSize: int(pageSize), data: data[offset:end:end]}
		if !o.skipVerify && f.Checksum() != crc {
			return nil, fmt.Errorf("container file %s: data CRC mismatch (corrupt data region)", name)
		}
		c.Files = append(c.Files, f)
	}
	if md.Err() != nil {
		return nil, fmt.Errorf("container meta block: %w", md.Err())
	}
	if md.Remaining() != 0 {
		return nil, fmt.Errorf("container meta block: %d trailing bytes", md.Remaining())
	}
	return c, nil
}
