package spill

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/pager"
	"repro/internal/snapshot/idcol"
	"repro/internal/tgm"
)

// namePrefix marks every named spill file, so the boot-time sweep can
// reap strays without risking anyone else's files.
const namePrefix = "etspill-"

// runHeaderLen is the fixed per-run header: rows, columns, payload
// length, CRC-32C of the payload — four little-endian uint32.
const runHeaderLen = 16

// fileSeq numbers run files process-wide; the number namespaces each
// file's runs in the shared pager pool (pager.Key.Type).
var fileSeq atomic.Int64

// RunMeta locates one run within a file.
type RunMeta struct {
	// StartRow is the run's first row in the file's global row order.
	StartRow int
	// Rows is the run's row count.
	Rows int

	off        int64 // header offset within the file
	payloadLen int
	crc        uint32
}

// RunFile is a sequence of runs in one temp file: append-only while
// writing, randomly addressable by run afterwards. Appends must be
// serialized by the caller (the execution pipeline is single-writer);
// reads are safe concurrently with each other once writing stops, and
// fault through the configured pager pool so total decoded residency
// across all spilled state stays bounded.
type RunFile struct {
	f    *os.File
	name string // on-disk path; "" for anonymous files
	id   string // pager key namespace, unique per file
	cols int

	m      *Metrics
	budget *Budget
	pool   *lru.Cache[pager.Key, [][]tgm.NodeID]

	mu     sync.Mutex // guards the write path and the directory
	runs   []RunMeta
	rows   int
	bytes  int64
	closed bool

	scratch []byte // write-path serialization buffer, reused per run
}

// Options configures a run file.
type Options struct {
	// Dir is the directory temp files are created in; "" uses the
	// system default.
	Dir string
	// Cols is the number of ID columns every run carries.
	Cols int
	// Metrics receives telemetry; nil counts nothing.
	Metrics *Metrics
	// Budget is the shared byte cap; nil is unbounded.
	Budget *Budget
	// Pool is the buffer pool run payloads fault through; nil reads
	// decode on every access (tests).
	Pool *lru.Cache[pager.Key, [][]tgm.NodeID]
	// Named keeps the file visibly on disk (prefix "etspill-") until
	// Close instead of using an anonymous temp file. For tests and
	// debugging; anonymous files cannot leak names on crash.
	Named bool
}

// Create opens a new run file. Every Create counts one spill event on
// the metrics — a RunFile exists only because some operator
// overflowed.
func Create(opt Options) (*RunFile, error) {
	if opt.Cols <= 0 {
		return nil, fmt.Errorf("spill: run file needs at least one column, got %d", opt.Cols)
	}
	dir := opt.Dir
	if dir == "" {
		dir = os.TempDir()
	}
	var f *os.File
	var name string
	var err error
	if opt.Named {
		f, err = os.CreateTemp(dir, namePrefix+"*.run")
		if err == nil {
			name = f.Name()
		}
	} else {
		f, err = openAnon(dir)
	}
	if err != nil {
		return nil, fmt.Errorf("spill: creating run file in %s: %w", dir, err)
	}
	opt.Metrics.addSpill()
	return &RunFile{
		f: f, name: name,
		id:     "spill#" + strconv.FormatInt(fileSeq.Add(1), 10),
		cols:   opt.Cols,
		m:      opt.Metrics,
		budget: opt.Budget,
		pool:   opt.Pool,
	}, nil
}

// openUnlinked creates a named temp file and immediately unlinks it —
// the portable anonymous-file fallback shared by every platform.
func openUnlinked(dir string) (*os.File, error) {
	f, err := os.CreateTemp(dir, namePrefix+"*.run")
	if err != nil {
		return nil, err
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Name returns the on-disk path, or "" for anonymous files.
func (rf *RunFile) Name() string { return rf.name }

// displayName names the file in errors.
func (rf *RunFile) displayName() string {
	if rf.name == "" {
		return "anonymous spill file"
	}
	return rf.name
}

// Cols returns the per-run column count.
func (rf *RunFile) Cols() int { return rf.cols }

// Rows returns the total rows appended so far.
func (rf *RunFile) Rows() int {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.rows
}

// Bytes returns the bytes written so far (headers included).
func (rf *RunFile) Bytes() int64 {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.bytes
}

// NumRuns returns the number of runs appended so far.
func (rf *RunFile) NumRuns() int {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return len(rf.runs)
}

// Run returns run i's metadata.
func (rf *RunFile) Run(i int) RunMeta {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.runs[i]
}

// RunForRow returns the index of the run containing global row r
// (binary search over the in-memory directory).
func (rf *RunFile) RunForRow(r int) int {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	lo, hi := 0, len(rf.runs)
	for lo < hi {
		mid := (lo + hi) / 2
		if rf.runs[mid].StartRow+rf.runs[mid].Rows <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AppendRun serializes cols — equal-length ID columns, one run —
// appends it to the file, and records it in the directory. Returns a
// *BudgetError without writing when the run would exceed the shared
// byte budget.
func (rf *RunFile) AppendRun(cols [][]tgm.NodeID) error {
	if len(cols) != rf.cols {
		return fmt.Errorf("spill: run has %d columns, file carries %d", len(cols), rf.cols)
	}
	n := len(cols[0])
	for _, c := range cols[1:] {
		if len(c) != n {
			return fmt.Errorf("spill: ragged run columns (%d vs %d rows)", len(c), n)
		}
	}
	payloadLen := rf.cols * n * idcol.IDWidth
	need := int64(runHeaderLen + payloadLen)
	if !rf.budget.reserve(need) {
		return &BudgetError{Limit: rf.budget.Limit}
	}

	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.closed {
		return fmt.Errorf("spill: append to closed run file")
	}
	if cap(rf.scratch) < runHeaderLen+payloadLen {
		rf.scratch = make([]byte, 0, runHeaderLen+payloadLen)
	}
	buf := rf.scratch[:runHeaderLen]
	for _, c := range cols {
		buf = idcol.Append(buf, c)
	}
	payload := buf[runHeaderLen:]
	crc := idcol.Checksum(payload)
	binary.LittleEndian.PutUint32(buf[0:], uint32(n))
	binary.LittleEndian.PutUint32(buf[4:], uint32(rf.cols))
	binary.LittleEndian.PutUint32(buf[8:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[12:], crc)
	if _, err := rf.f.WriteAt(buf, rf.bytes); err != nil {
		return fmt.Errorf("spill: writing run: %w", err)
	}
	rf.runs = append(rf.runs, RunMeta{
		StartRow: rf.rows, Rows: n,
		off: rf.bytes, payloadLen: payloadLen, crc: crc,
	})
	rf.rows += n
	rf.bytes += int64(runHeaderLen + payloadLen)
	rf.scratch = buf[:0]
	rf.m.addRunBytes(int64(runHeaderLen + payloadLen))
	return nil
}

// ReadRun faults run i's columns back: through the pool when one is
// configured (bounded residency, singleflighted concurrent faults),
// else decoding directly. The returned columns are shared and must be
// treated as immutable.
func (rf *RunFile) ReadRun(i int) ([][]tgm.NodeID, error) {
	if rf.pool == nil {
		return rf.loadRun(i)
	}
	return rf.pool.Get(pager.Key{Type: rf.id, Attr: i}, func() ([][]tgm.NodeID, error) {
		return rf.loadRun(i)
	})
}

// loadRun reads, verifies, and decodes one run from disk.
func (rf *RunFile) loadRun(i int) ([][]tgm.NodeID, error) {
	rf.mu.Lock()
	if rf.closed {
		rf.mu.Unlock()
		return nil, fmt.Errorf("spill: read from closed run file")
	}
	meta := rf.runs[i]
	f := rf.f
	rf.mu.Unlock()

	hdr := make([]byte, runHeaderLen)
	if _, err := f.ReadAt(hdr, meta.off); err != nil {
		return nil, &CorruptError{Name: rf.displayName(), Run: i, Reason: fmt.Sprintf("reading header: %v", err)}
	}
	rows := int(binary.LittleEndian.Uint32(hdr[0:]))
	ncols := int(binary.LittleEndian.Uint32(hdr[4:]))
	payloadLen := int(binary.LittleEndian.Uint32(hdr[8:]))
	crc := binary.LittleEndian.Uint32(hdr[12:])
	if rows != meta.Rows || ncols != rf.cols || payloadLen != meta.payloadLen || crc != meta.crc {
		return nil, &CorruptError{Name: rf.displayName(), Run: i,
			Reason: fmt.Sprintf("header mismatch: rows=%d cols=%d len=%d, want rows=%d cols=%d len=%d",
				rows, ncols, payloadLen, meta.Rows, rf.cols, meta.payloadLen)}
	}
	payload := make([]byte, payloadLen)
	if _, err := f.ReadAt(payload, meta.off+runHeaderLen); err != nil {
		return nil, &CorruptError{Name: rf.displayName(), Run: i, Reason: fmt.Sprintf("reading payload: %v", err)}
	}
	if got := idcol.Checksum(payload); got != meta.crc {
		return nil, &CorruptError{Name: rf.displayName(), Run: i,
			Reason: fmt.Sprintf("payload checksum %08x, want %08x", got, meta.crc)}
	}
	cols := make([][]tgm.NodeID, rf.cols)
	arena := make([]tgm.NodeID, rf.cols*rows)
	for c := range cols {
		cols[c] = arena[c*rows : (c+1)*rows : (c+1)*rows]
		idcol.DecodeInto(cols[c], payload[c*rows*idcol.IDWidth:])
	}
	rf.m.addFault()
	return cols, nil
}

// Close releases the file: the descriptor closes (reclaiming anonymous
// storage) and named files are removed from disk. Idempotent.
func (rf *RunFile) Close() error {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.closed {
		return nil
	}
	rf.closed = true
	err := rf.f.Close()
	if rf.name != "" {
		if rmErr := os.Remove(rf.name); rmErr != nil && err == nil && !os.IsNotExist(rmErr) {
			err = rmErr
		}
	}
	return err
}

// SweepDir removes stale named spill files ("etspill-*") from dir —
// the boot-time reaper for runs a crashed or killed process left
// behind. Live anonymous files are invisible to it by construction.
// Returns the number of files removed.
func SweepDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), namePrefix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err == nil {
			removed++
		}
	}
	return removed, nil
}
