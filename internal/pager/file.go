package pager

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// ErrClosed reports a read of a File after its Close.
var ErrClosed = errors.New("pager: file is closed")

// File is a read-only random-access view of a snapshot file. On
// platforms with mmap support (linux, darwin) the whole file is mapped
// and Slice returns zero-copy sub-slices of the mapping; elsewhere
// Slice falls back to allocate-and-ReadAt. Either way the returned
// bytes must be treated as immutable.
type File struct {
	f    *os.File
	data []byte // the mmap view; nil when using the ReadAt fallback
	size int64
	// mu holds Close off while a Read is in flight, so an unmap never
	// pulls the mapping from under a reader; closed is set under it.
	mu     sync.RWMutex
	closed atomic.Bool
}

// OpenFile opens path for random access.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	pf := &File{f: f, size: st.Size()}
	if pf.size > 0 {
		if data, err := mmap(f, pf.size); err == nil {
			pf.data = data
		}
		// mmap failure is not fatal: ReadAt serves the same bytes.
	}
	return pf, nil
}

// Size returns the file's length in bytes.
func (pf *File) Size() int64 { return pf.size }

// Mapped reports whether the file is served from an mmap view
// (zero-copy slices) rather than the ReadAt fallback.
func (pf *File) Mapped() bool { return pf.data != nil }

// Slice returns n bytes at offset off. With an mmap view this is a
// zero-copy sub-slice of the mapping; the fallback allocates and reads.
// The caller must not modify the returned bytes.
func (pf *File) Slice(off, n int64) ([]byte, error) {
	if pf.closed.Load() {
		return nil, ErrClosed
	}
	if off < 0 || n < 0 || off+n > pf.size {
		return nil, fmt.Errorf("pager: slice [%d, %d) outside file of %d bytes", off, off+n, pf.size)
	}
	if pf.data != nil {
		return pf.data[off : off+n : off+n], nil
	}
	buf := make([]byte, n)
	if _, err := pf.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// Read runs fn, which reads the file through Slice and uses the bytes,
// and holds Close off until fn returns: a reader that may race a Close
// reads inside Read. After Close it returns ErrClosed without running
// fn.
func (pf *File) Read(fn func() error) error {
	pf.mu.RLock()
	defer pf.mu.RUnlock()
	if pf.closed.Load() {
		return ErrClosed
	}
	return fn()
}

// Close waits for the Reads in flight, then unmaps and closes the file.
// Slices previously returned from an mmap view become invalid: callers
// must not use them after Close, and Slice and Read return ErrClosed.
// (Decoded columns are unaffected — decoding copies what it needs.)
func (pf *File) Close() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pf.closed.Store(true)
	var errUnmap error
	if pf.data != nil {
		errUnmap = munmap(pf.data)
		pf.data = nil
	}
	errClose := pf.f.Close()
	if errUnmap != nil {
		return errUnmap
	}
	return errClose
}
