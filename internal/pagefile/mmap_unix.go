//go:build unix

package pagefile

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps the file at path read-only and shared: every process
// serving the same container shares one copy of it in the page cache, off
// the Go heap. unmap releases the mapping; it is nil for an empty file,
// which has nothing to map.
func mapFile(path string) (data []byte, unmap func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close() // the mapping outlives the descriptor
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, nil, nil
	}
	if int64(int(size)) != size {
		return nil, nil, fmt.Errorf("pagefile: %s: %d bytes exceed the address space", path, size)
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("pagefile: map %s: %w", path, err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
