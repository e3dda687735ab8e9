package pagefile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildSpec assembles a small two-file container spec with recognizable
// page contents.
func buildSpec(t *testing.T) ContainerSpec {
	t.Helper()
	fa := NewFile("Fa", 64)
	for i := 0; i < 10; i++ {
		fa.MustAppendPage(bytes.Repeat([]byte{byte(i + 1)}, 8))
	}
	fb := NewFile("Fb", 32)
	fb.MustAppendPage([]byte("hello container"))
	return ContainerSpec{
		Scheme: "CI",
		Header: []byte("header-blob"),
		Plan:   []byte{1, 2, 3, 4},
		Files:  []Reader{fa, fb},
	}
}

func encodeSpec(t *testing.T, spec ContainerSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteContainerTo(&buf, spec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	spec := buildSpec(t)
	path := filepath.Join(t.TempDir(), "db.psdb")
	if err := WriteContainer(path, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind")
	}
	c, err := OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Scheme != "CI" || string(c.Header) != "header-blob" || !bytes.Equal(c.Plan, []byte{1, 2, 3, 4}) {
		t.Fatalf("metadata: scheme %q header %q plan %v", c.Scheme, c.Header, c.Plan)
	}
	if len(c.Files) != 2 {
		t.Fatalf("%d files", len(c.Files))
	}
	for fi, want := range spec.Files {
		got := c.Files[fi]
		if got.Name() != want.Name() || got.PageSize() != want.PageSize() || got.NumPages() != want.NumPages() {
			t.Fatalf("file %d: got %s/%d/%d", fi, got.Name(), got.PageSize(), got.NumPages())
		}
		for i := 0; i < want.NumPages(); i++ {
			wp, _ := want.Page(i)
			gp, err := got.Page(i)
			if err != nil || !bytes.Equal(gp, wp) {
				t.Fatalf("file %s page %d: %v, %v", want.Name(), i, gp, err)
			}
		}
		if _, err := got.Page(want.NumPages()); err == nil {
			t.Errorf("file %s: out-of-range page read", want.Name())
		}
		if _, err := got.Page(-1); err == nil {
			t.Errorf("file %s: negative page read", want.Name())
		}
		if allocs := testing.AllocsPerRun(100, func() { got.Page(0) }); allocs != 0 {
			t.Errorf("file %s: Page allocates %v times per call", want.Name(), allocs)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestContainerCorruptionPaths(t *testing.T) {
	spec := buildSpec(t)
	valid := encodeSpec(t, spec)

	// Locate a byte inside Fb's data region: its page holds "hello
	// container", which appears exactly once.
	fbOff := bytes.Index(valid, []byte("hello container"))
	if fbOff < 0 {
		t.Fatal("data region not found")
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{
			name:    "empty",
			mutate:  func(b []byte) []byte { return nil },
			wantErr: "truncated",
		},
		{
			name:    "truncated preamble",
			mutate:  func(b []byte) []byte { return b[:6] },
			wantErr: "truncated",
		},
		{
			name:    "truncated meta",
			mutate:  func(b []byte) []byte { return b[:12] },
			wantErr: "truncated",
		},
		{
			name:    "truncated data region",
			mutate:  func(b []byte) []byte { return b[:len(b)-8] },
			wantErr: "file",
		},
		{
			name: "bad magic",
			mutate: func(b []byte) []byte {
				b[0] = 'X'
				return b
			},
			wantErr: "bad magic",
		},
		{
			name: "future format version",
			mutate: func(b []byte) []byte {
				b[4], b[5] = 0xEF, 0xBE
				return b
			},
			wantErr: "version 48879 not supported",
		},
		{
			name: "version zero",
			mutate: func(b []byte) []byte {
				b[4], b[5] = 0, 0
				return b
			},
			wantErr: "version 0 not supported",
		},
		{
			name: "meta corruption",
			mutate: func(b []byte) []byte {
				b[11] ^= 0xFF // inside the scheme name field
				return b
			},
			wantErr: "meta block CRC mismatch",
		},
		{
			name: "per-file CRC mismatch",
			mutate: func(b []byte) []byte {
				b[fbOff] ^= 0x01
				return b
			},
			wantErr: "file Fb: data CRC mismatch",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			_, err := ReadContainer(data)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ReadContainer = %v, want error containing %q", err, tc.wantErr)
			}
			// The same corruption surfaces through the path-based opener.
			path := filepath.Join(t.TempDir(), "bad.psdb")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenContainer(path); err == nil {
				t.Fatal("OpenContainer accepted corrupt file")
			}
		})
	}
}

func TestWithoutDataVerify(t *testing.T) {
	spec := buildSpec(t)
	valid := encodeSpec(t, spec)
	fbOff := bytes.Index(valid, []byte("hello container"))
	corrupt := append([]byte(nil), valid...)
	corrupt[fbOff] ^= 0x01

	// Skipping the data scan defers corruption to read time — the open
	// succeeds, metadata is still verified.
	c, err := ReadContainer(corrupt, WithoutDataVerify())
	if err != nil {
		t.Fatalf("WithoutDataVerify open: %v", err)
	}
	if len(c.Files) != 2 {
		t.Fatalf("%d files", len(c.Files))
	}
	metaCorrupt := append([]byte(nil), valid...)
	metaCorrupt[11] ^= 0xFF
	if _, err := ReadContainer(metaCorrupt, WithoutDataVerify()); err == nil {
		t.Error("meta corruption accepted with WithoutDataVerify")
	}
}

func TestWriteContainerRejectsBadSpecs(t *testing.T) {
	long := NewFile(strings.Repeat("n", 256), 16)
	long.MustAppendPage([]byte{1})
	if err := WriteContainerTo(&bytes.Buffer{}, ContainerSpec{Files: []Reader{long}}); err == nil {
		t.Error("256-byte file name accepted")
	}
	// A ragged page slice (page shorter than the declared size) must be
	// rejected, or every later offset would silently shift.
	ragged := SlicePages("Fr", 16, [][]byte{{1, 2, 3}})
	if err := WriteContainerTo(&bytes.Buffer{}, ContainerSpec{Files: []Reader{ragged}}); err == nil {
		t.Error("ragged page accepted")
	}
}

// TestMappedFileConcurrentReads: many goroutines read the pages of one
// opened container at once; run with -race it shows that the mapped Files
// are safe for the concurrent daemon.
func TestMappedFileConcurrentReads(t *testing.T) {
	spec := buildSpec(t)
	path := filepath.Join(t.TempDir(), "db.psdb")
	if err := WriteContainer(path, spec); err != nil {
		t.Fatal(err)
	}
	c, err := OpenContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fa := c.Files[0]
	want := make([][]byte, fa.NumPages())
	for i := range want {
		want[i], _ = spec.Files[0].Page(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := (g + i) % fa.NumPages()
				got, err := fa.Page(p)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(got, want[p]) {
					t.Errorf("goroutine %d: page %d content", g, p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestContainerEmptyAndManyFiles(t *testing.T) {
	// Zero page files (legal: a header-only database) and a zero-page file.
	empty := NewFile("F0", 16)
	spec := ContainerSpec{Scheme: "S", Header: nil, Plan: nil, Files: []Reader{empty}}
	data := encodeSpec(t, spec)
	c, err := ReadContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Files) != 1 || c.Files[0].NumPages() != 0 {
		t.Fatalf("files = %+v", c.Files)
	}
	if _, err := c.Files[0].Page(0); err == nil {
		t.Error("page read from empty file")
	}

	// Duplicate file names are rejected at open time.
	fa1 := NewFile("Fa", 16)
	fa1.MustAppendPage([]byte{1})
	fa2 := NewFile("Fa", 16)
	fa2.MustAppendPage([]byte{2})
	dup := encodeSpec(t, ContainerSpec{Scheme: "S", Files: []Reader{fa1, fa2}})
	if _, err := ReadContainer(dup); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names: %v", err)
	}
}

func TestOpenContainerMissingFile(t *testing.T) {
	if _, err := OpenContainer(filepath.Join(t.TempDir(), "nope.psdb")); err == nil {
		t.Error("missing file opened")
	}
}

func TestContainerVersionIsCurrent(t *testing.T) {
	// Guard against accidentally bumping the version without a reader
	// migration: this test pins the on-disk preamble.
	data := encodeSpec(t, buildSpec(t))
	if string(data[:4]) != ContainerMagic {
		t.Errorf("magic = %q", data[:4])
	}
	if v := int(data[4]) | int(data[5])<<8; v != ContainerVersion {
		t.Errorf("version = %d, want %d", v, ContainerVersion)
	}
}

// TestOpenedFileAppendCopies: a container's Files are views of its bytes,
// but an append to one — Fa, with Fb's pages right behind it — copies it
// instead of writing into the next file or the container.
func TestOpenedFileAppendCopies(t *testing.T) {
	spec := buildSpec(t)
	data := encodeSpec(t, spec)
	orig := append([]byte(nil), data...)
	c, err := ReadContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	fa := c.Files[0]
	n := fa.NumPages()
	fa.MustAppendPage(bytes.Repeat([]byte{0xEE}, fa.PageSize()))
	if !bytes.Equal(data, orig) {
		t.Fatal("an append to an opened file wrote into the container")
	}
	if fa.NumPages() != n+1 {
		t.Fatalf("%d pages after the append, want %d", fa.NumPages(), n+1)
	}
	want, _ := spec.Files[1].Page(0)
	if got, _ := c.Files[1].Page(0); !bytes.Equal(got, want) {
		t.Error("the next file changed")
	}
}

// TestContainerDataRegionAligned: the writer zero-pads the meta block out
// to the next multiple of dataAlign and starts the first file's pages there,
// as its file-table offset says.
func TestContainerDataRegionAligned(t *testing.T) {
	spec := buildSpec(t)
	data := encodeSpec(t, spec)
	metaLen, err := containerMetaLen(spec)
	if err != nil {
		t.Fatal(err)
	}
	start := int(dataStart(metaLen))
	if start%dataAlign != 0 || start < containerPreamble+metaLen+4 {
		t.Fatalf("data region starts at %d", start)
	}
	if pad := data[containerPreamble+metaLen+4 : start]; !bytes.Equal(pad, make([]byte, len(pad))) {
		t.Error("padding before the data region is not zero")
	}
	page0, _ := spec.Files[0].Page(0)
	if !bytes.Equal(data[start:start+len(page0)], page0) {
		t.Error("first file does not start the data region")
	}
	if want := start + int(Bytes(spec.Files[0])+Bytes(spec.Files[1])); len(data) != want {
		t.Errorf("container is %d bytes, want %d", len(data), want)
	}
}

func ExampleWriteContainer() {
	f := NewFile("Fd", 16)
	f.MustAppendPage([]byte("page zero"))
	dir, _ := os.MkdirTemp("", "psdb")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "demo.psdb")
	if err := WriteContainer(path, ContainerSpec{Scheme: "CI", Header: []byte("h"), Files: []Reader{f}}); err != nil {
		fmt.Println(err)
		return
	}
	c, err := OpenContainer(path)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer c.Close()
	p, _ := c.Files[0].Page(0)
	fmt.Printf("%s %s\n", c.Scheme, bytes.TrimRight(p, "\x00"))
	// Output: CI page zero
}
