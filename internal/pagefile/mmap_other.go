//go:build !unix

package pagefile

import "os"

// mapFile reads the file at path into memory: this platform has no mmap.
// unmap is nil, since the copy is garbage collected.
func mapFile(path string) (data []byte, unmap func() error, err error) {
	data, err = os.ReadFile(path)
	return data, nil, err
}
