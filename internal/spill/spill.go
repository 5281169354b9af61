// Package spill is a disk tier of ID-column runs: runs are written to a
// temp file and fault back through the same bounded buffer pool
// (internal/pager) that serves out-of-core snapshot columns. Runs are
// written once, in order, and only read back: nothing sorts or merges
// them. The engine no longer writes any — a presentation stores no
// cell, so nothing it holds outgrows the row budget — and the server
// calls only SweepDir, at boot under -spill-dir. The run files, their
// byte budget and their counters go with the spill flags, in one
// change with the package's tests.
//
// A run is one self-contained chunk of ID columns — a fixed 16-byte
// header (rows, columns, payload length, CRC-32C of the payload)
// followed by the payload, column-major in the snapshot's ID-column
// encoding (fixed-width little-endian uint32; see snapshot.AppendIDColumn).
// Runs append sequentially to one file per RunFile; the per-run
// directory (byte offset, row bounds) stays in memory, so a
// window-addressable reader touches only the runs that cover the
// window.
//
// Temp-file discipline: files are anonymous wherever the platform
// allows — O_TMPFILE on Linux, create+unlink elsewhere — so a crashed
// process leaks no on-disk names. Named files (CreateNamed, used by
// tests and debuggable deployments) carry the "etspill-" prefix and
// are reaped both on Close and by the boot-time SweepDir of the
// configured spill directory.
//
// Integrity: every payload is CRC-32C-checked on fault with the same
// Castagnoli polynomial as snapshot sections. A mismatch (truncated
// file, flipped byte) surfaces as a typed *CorruptError — never a
// panic — and, because the pager does not cache load errors, a
// repaired file heals on the next fault.
package spill

import (
	"fmt"
	"sync/atomic"
)

// Metrics aggregates one dataset's spill telemetry — the counters the
// server's /api/v1/stats spill block reports. All fields are atomic;
// a zero Metrics is ready to use. A nil *Metrics is accepted
// everywhere and counts nothing.
type Metrics struct {
	// Spills counts spill events: run files created.
	Spills atomic.Int64
	// RunBytes counts bytes written to spill runs (headers included).
	RunBytes atomic.Int64
	// Faults counts run payloads read (and CRC-verified) back from
	// disk. Pool-resident re-reads do not count.
	Faults atomic.Int64
}

// Stats is a point-in-time copy of Metrics.
type Stats struct {
	Spills   int64
	RunBytes int64
	Faults   int64
}

// Snapshot returns the current counter values. Safe on nil (all
// zeros).
func (m *Metrics) Snapshot() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{
		Spills:   m.Spills.Load(),
		RunBytes: m.RunBytes.Load(),
		Faults:   m.Faults.Load(),
	}
}

func (m *Metrics) addSpill() {
	if m != nil {
		m.Spills.Add(1)
	}
}

func (m *Metrics) addRunBytes(n int64) {
	if m != nil {
		m.RunBytes.Add(n)
	}
}

func (m *Metrics) addFault() {
	if m != nil {
		m.Faults.Add(1)
	}
}

// Budget is a byte budget shared by every run file of one execution:
// the -max-spill-bytes hard cap. Reservations are atomic so every fold
// sink of one query charges one envelope. A nil *Budget is unbounded.
type Budget struct {
	// Limit is the cap in bytes; <= 0 is unbounded.
	Limit int64
	used  atomic.Int64
}

// reserve charges n bytes against the budget, reporting whether they
// fit. Over-budget reservations are not charged.
func (b *Budget) reserve(n int64) bool {
	if b == nil || b.Limit <= 0 {
		return true
	}
	if b.used.Add(n) > b.Limit {
		b.used.Add(-n)
		return false
	}
	return true
}

// Used returns the bytes currently charged.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// BudgetError reports a spill that would exceed the byte cap — the
// signal the execution layer turns back into the 413 result_too_large
// rejection (spilling exists to survive the row cap, not to grant
// unbounded disk).
type BudgetError struct {
	// Limit is the byte cap that would have been exceeded.
	Limit int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("spill: result exceeds spill byte budget %d", e.Limit)
}

// CorruptError reports a spill run whose payload failed validation —
// a truncated file, a flipped byte, a short read. It mirrors
// snapshot.CorruptError: typed, never a panic, and non-sticky (the
// pager does not cache errors, so a repaired file heals on the next
// fault).
type CorruptError struct {
	// Name locates the file ("anonymous" for unlinked temp files).
	Name string
	// Run is the damaged run's index within the file.
	Run int
	// Reason describes the validation failure.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("spill: corrupt run %d in %s: %s", e.Run, e.Name, e.Reason)
}
