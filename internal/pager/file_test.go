package pager

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestFileSliceAndWriteVisibility: Slice returns the file's bytes, and
// — on mmap platforms — an in-place rewrite of the file is visible
// through a fresh Slice (the mapping is MAP_SHARED), which is what
// lets a repaired snapshot recover without reopening.
func TestFileSliceAndWriteVisibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	content := []byte("0123456789abcdef")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if pf.Size() != int64(len(content)) {
		t.Fatalf("Size = %d, want %d", pf.Size(), len(content))
	}
	if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
		if !pf.Mapped() {
			t.Fatal("expected an mmap view on this platform")
		}
	}
	got, err := pf.Slice(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[4:10]) {
		t.Fatalf("Slice(4,6) = %q, want %q", got, content[4:10])
	}
	// Out-of-range requests fail instead of truncating.
	for _, bad := range [][2]int64{{-1, 4}, {0, -1}, {10, 7}, {17, 0}} {
		if _, err := pf.Slice(bad[0], bad[1]); err == nil {
			t.Fatalf("Slice(%d, %d) succeeded outside the file", bad[0], bad[1])
		}
	}
	// Rewrite a byte through the filesystem; a fresh Slice sees it.
	w, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte{'X'}, 5); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err = pf.Slice(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'X' {
		t.Fatalf("Slice after WriteAt = %q, want 'X'", got)
	}
}

// TestFileEmpty: a zero-byte file opens, reports size 0, and rejects
// any non-empty slice.
func TestFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if pf.Size() != 0 {
		t.Fatalf("Size = %d", pf.Size())
	}
	if b, err := pf.Slice(0, 0); err != nil || len(b) != 0 {
		t.Fatalf("Slice(0,0) = %v, %v", b, err)
	}
	if _, err := pf.Slice(0, 1); err == nil {
		t.Fatal("Slice(0,1) succeeded on an empty file")
	}
}

// TestFileCloseWaitsForRead: a Close that races a Read waits until the
// Read's fn has finished with the bytes it sliced, and a Read after
// Close returns ErrClosed without running its fn.
func TestFileCloseWaitsForRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	inRead, release, closed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var got []byte
	go func() {
		pf.Read(func() error {
			close(inRead)
			<-release
			b, err := pf.Slice(0, 6)
			got = append([]byte(nil), b...)
			return err
		})
	}()
	<-inRead
	go func() {
		pf.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a Read was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if string(got) != "abcdef" {
		t.Fatalf("the Read in flight read %q", got)
	}
	ran := false
	if err := pf.Read(func() error { ran = true; return nil }); !errors.Is(err, ErrClosed) || ran {
		t.Fatalf("Read after Close = %v (fn ran: %v), want ErrClosed", err, ran)
	}
}
