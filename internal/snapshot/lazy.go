package snapshot

// The out-of-core load path: the paged policy of the one open (open,
// in snapshot.go). LazyLoad maps an .etsnap file without decoding its
// attribute columns or adjacency arrays: the header, section table,
// and skeleton sections (META, SCHM, NSKL, EDGE, STAT) are CRC-verified
// at open, but only the skeleton proper — node IDs, column directory,
// and the EDGE per-type directory — is decoded (STAT is not), O(section
// table + skeleton), independent of the corpus's
// column and edge bytes. Every attribute column is left as an
// unresolved handle that faults in through a bounded pool on first
// access, and every edge type's CSR arrays materialize on the first
// traversal that touches them. Steady-state memory is the skeleton plus
// traversed adjacency plus at most the pool budget of decoded columns
// (plus whatever pinned windows require), no matter how large the
// corpus is.
//
// The pool — the pager — is an lru.Cache of decoded columns keyed by
// colKey over a snapFile (file.go): a fixed budget of resident
// sections, faulted in on first touch, evicted least recently used
// first, and pinned while read. It bounds residency, not validity:
// evicting a section only drops the pool's reference to the decoded
// column, so columns already handed out stay valid (the garbage
// collector keeps them alive until the caller drops them). Pins
// therefore exist to bound rework — a pinned section cannot be evicted
// and re-faulted while a window is mid-materialization — not to prevent
// use-after-free, which the runtime already rules out.

import (
	"fmt"
	"hash/crc32"

	"repro/internal/lru"
	"repro/internal/value"
)

// DefaultPoolSections is the column-section budget a LazySnapshot's
// pager uses when the caller does not choose one.
const DefaultPoolSections = 64

// LazyOptions configures an out-of-core open.
type LazyOptions struct {
	// PoolSections is the pager budget: the maximum number of decoded
	// attribute columns kept resident at once (DefaultPoolSections if
	// zero; minimum 1). Pinned columns may push residency past the
	// budget transiently.
	PoolSections int
}

// LazySnapshot is an out-of-core TGDB: a fully decoded skeleton whose
// attribute columns live on disk and fault in on demand. The embedded
// Snapshot fields (Schema, Graph, Info) are usable exactly like an
// eager load's; queries on Graph fault columns in transparently and
// surface *CorruptError from damaged sections. Close releases the
// underlying file; the graph must not be queried afterwards.
type LazySnapshot struct {
	Snapshot
	src *columnSource
}

// LazyLoad opens the snapshot at path out of core. Failures are typed
// like Load's: ErrBadMagic, *VersionError, or *CorruptError. Column
// payloads are not read — let alone checksummed — until a query faults
// them in, at which point a damaged column surfaces as *CorruptError
// from that query (and is retried on the next fault, so a repaired
// file recovers without reopening).
func LazyLoad(path string, opt LazyOptions) (*LazySnapshot, error) {
	f, err := openSnapFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: opening %s: %w", path, err)
	}
	data, err := f.Slice(0, f.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("snapshot: reading header: %w", err)
	}
	budget := opt.PoolSections
	if budget == 0 {
		budget = DefaultPoolSections
	}
	snap, src, err := open(data, f, budget)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &LazySnapshot{Snapshot: *snap, src: src}, nil
}

// PagerStats reports the pager's residency and fault telemetry (a
// fault is a Misses load) plus the file's total column-section count
// (the denominator for the resident gauge).
func (ls *LazySnapshot) PagerStats() (lru.Stats, int) {
	return ls.src.pool.Stats(), ls.src.totalSections
}

// ResidentBytes is the decoded size of every column the pager holds,
// pinned ones included (value.Column.Bytes).
func (ls *LazySnapshot) ResidentBytes() int64 {
	var n int64
	for _, col := range ls.src.pool.Values() {
		n += col.Bytes()
	}
	return n
}

// Close releases the snapshot file (and any mmap view), waiting for the
// column faults and edge loads in flight. The graph should not be
// queried after Close: columns and adjacency already decoded remain
// valid, but faulting in a new column — or first-traversing an edge
// type — fails with ErrClosed.
func (ls *LazySnapshot) Close() error {
	return ls.src.file.Close()
}

// columnSource resolves attribute columns out of NCOL: it locates a
// column's payload via the NSKL directory, verifies its CRC-32C, and
// decodes it. On the paged policy it implements tgm.ColumnSource over
// the snapshot file and caches decoded columns in the pool; on
// the resident policy it reads the in-memory NCOL bytes once per
// column and is dropped when the open returns.
type columnSource struct {
	file          *snapFile // paged: the open snapshot file
	pool          *lru.Cache[colKey, value.Column]
	ncolOff       uint64 // paged: NCOL payload's offset within the file
	ncol          []byte // resident: the NCOL payload
	ncolLen       uint64
	types         map[string]typeCols
	totalSections int
}

// colKey names one faultable section: attribute ordinal attr of the
// node type typeName.
type colKey struct {
	typeName string
	attr     int
}

// PinColumn implements tgm.ColumnSource.
func (cs *columnSource) PinColumn(typeName string, ai int) (value.Column, func(), error) {
	return cs.pool.Pin(colKey{typeName, ai}, func() (value.Column, error) {
		return cs.fault(typeName, ai)
	})
}

// fault loads a column from the paged file inside file.Read, so a
// concurrent Close waits until its bytes are checksummed and decoded.
func (cs *columnSource) fault(typeName string, ai int) (col value.Column, err error) {
	if rerr := cs.file.Read(func() error {
		col, err = cs.load(typeName, ai)
		return err
	}); rerr != nil && err == nil {
		err = rerr
	}
	return col, err
}

// load is the one route from a directory entry to a column, on both
// policies: range check, read the column's bytes, checksum, decode.
// Load errors are not cached by the pool, so a transient failure (or a
// since-repaired corruption) does not poison the section — the next
// fault retries from the file.
func (cs *columnSource) load(typeName string, ai int) (value.Column, error) {
	tc, ok := cs.types[typeName]
	if !ok {
		return value.Column{}, fmt.Errorf("snapshot: no column directory for node type %q", typeName)
	}
	if ai < 0 || ai >= len(tc.cols) {
		return value.Column{}, fmt.Errorf("snapshot: node type %q has no attribute ordinal %d", typeName, ai)
	}
	cm := tc.cols[ai]
	if cm.off > cs.ncolLen || cm.length > cs.ncolLen-cm.off {
		return value.Column{}, corrupt(secSkel, "column %s[%d] range [%d,+%d) exceeds NCOL size %d",
			typeName, ai, cm.off, cm.length, cs.ncolLen)
	}
	payload, err := cs.payload(cm)
	if err != nil {
		return value.Column{}, fmt.Errorf("snapshot: reading column %s[%d]: %w", typeName, ai, err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != cm.crc {
		return value.Column{}, corrupt(secCols, "column %s[%d] checksum mismatch: stored %08x, computed %08x",
			typeName, ai, cm.crc, got)
	}
	return decodeColumn(payload, tc.rows, typeName, ai)
}

// payload returns a column's bytes: a sub-slice of the resident NCOL,
// or a fresh read of the paged file (so an in-place repair is seen).
func (cs *columnSource) payload(cm colMeta) ([]byte, error) {
	if cs.file == nil {
		return cs.ncol[cm.off : cm.off+cm.length], nil
	}
	return cs.file.Slice(int64(cs.ncolOff+cm.off), int64(cm.length))
}
