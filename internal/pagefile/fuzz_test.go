package pagefile

import (
	"bytes"
	"testing"
)

// FuzzOpenContainer throws arbitrary bytes at the container parser: it must
// either reject them with an error or return a fully usable container —
// never panic, never over-allocate from hostile length fields, and never
// hand back files whose pages lie outside the input.
func FuzzOpenContainer(f *testing.F) {
	// Seed with a valid container and a few structured near-misses.
	fa := NewFile("Fa", 32)
	for i := 0; i < 4; i++ {
		fa.MustAppendPage([]byte{byte(i), 0xAA})
	}
	fb := NewFile("Fb", 16)
	fb.MustAppendPage([]byte("fuzz"))
	var valid bytes.Buffer
	if err := WriteContainerTo(&valid, ContainerSpec{
		Header: []byte("hdr"),
		Files:  []Reader{fa, fb},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(encodeV1(f, "CI", []byte("hdr"), []byte{0, 1}, fa, fb))
	f.Add([]byte(ContainerMagic))
	f.Add([]byte("PSDB\x01\x00\xff\xff\xff\xff"))
	f.Add([]byte("PSDB\x02\x00\xff\xff\xff\xff"))
	truncated := append([]byte(nil), valid.Bytes()...)
	f.Add(truncated[:len(truncated)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadContainer(data)
		if err != nil {
			return
		}
		// Whatever parsed must be internally consistent and fully readable.
		for _, file := range c.Files {
			if file.PageSize() <= 0 {
				t.Fatalf("file %s: page size %d", file.Name(), file.PageSize())
			}
			for i := 0; i < file.NumPages(); i++ {
				p, err := file.Page(i)
				if err != nil {
					t.Fatalf("file %s: page %d of accepted container unreadable: %v", file.Name(), i, err)
				}
				if len(p) != file.PageSize() {
					t.Fatalf("file %s: page %d is %d bytes, want %d", file.Name(), i, len(p), file.PageSize())
				}
			}
			if _, err := file.Page(file.NumPages()); err == nil {
				t.Fatalf("file %s: out-of-range page readable", file.Name())
			}
		}
	})
}
