//go:build !linux && !darwin

package snapshot

import (
	"errors"
	"os"
)

// mmap is unavailable on this platform; snapFile falls back to ReadAt.
func mmap(*os.File, int64) ([]byte, error) {
	return nil, errors.New("snapshot: mmap not supported on this platform")
}

func munmap([]byte) error { return nil }
