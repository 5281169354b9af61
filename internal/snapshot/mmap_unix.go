//go:build linux || darwin

package snapshot

import (
	"os"
	"syscall"
)

// mmap maps size bytes of f read-only, shared. A shared mapping tracks
// the underlying file: tests repair an in-place corruption with WriteAt
// and expect the next fault to observe the fixed bytes.
func mmap(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmap(data []byte) error {
	return syscall.Munmap(data)
}
