// Package snapshot implements the persistent on-disk form of a frozen
// TGDB: a versioned, checksummed, columnar single-file format
// (".etsnap") holding the schema graph and the instance graph's node
// and edge columns. Save serializes a frozen tgm.InstanceGraph; Load
// reconstructs an identical frozen graph — same node IDs, same
// adjacency order — without re-running generation or translation,
// which is what lets a server boot from disk and a registry serve many
// datasets it never paid to translate. Load, Decode and LazyLoad share
// one open that differs only in residency: Load and Decode are
// resident (every column and edge type decoded at open, the file's
// bytes released); LazyLoad is paged: only the skeleton (schema, node
// ownership, the adjacency directory) is decoded at open, attribute
// columns fault in one at a time through a bounded buffer pool (the
// pager, lazy.go), and each edge type's adjacency arrays materialize on
// its first traversal.
//
// # File layout
//
//	offset 0   magic    8 bytes  89 45 54 53 4E 41 50 0A ("\x89ETSNAP\n")
//	offset 8   version  uint32 LE (currently 2)
//	offset 12  count    uint32 LE (number of sections)
//	offset 16  section table: count × {tag [4]byte, offset uint64 LE,
//	           length uint64 LE, crc32 uint32 LE (Castagnoli)}
//	...        section payloads, in table order, at the recorded offsets
//
// The magic begins with a non-ASCII byte and ends with a newline, so
// text-mode corruption (BOM insertion, CRLF translation, truncation by
// a line-oriented tool) is caught at the first eight bytes. The section
// table makes the format mmap-friendly: every section's byte range is
// known before any payload is read, sections can be verified and
// decoded independently, and the paged open maps the file and defers
// column materialization per column payload.
//
// Six sections, all present in version 2:
//
//	META  node/edge/type counts, for post-decode cross-checks
//	SCHM  schema graph: node types, then edge types in per-source
//	      out-edge order (the order OutEdges must reproduce, since the
//	      presentation layer derives neighbor-column order from it)
//	NSKL  node skeleton, per node type: the type's global node IDs
//	      (delta-encoded) and a column directory — per attribute, the
//	      column payload's offset/length within NCOL and its CRC-32C
//	NCOL  concatenated attribute column payloads (a tag array of value
//	      kinds, then the non-null payloads), each independently
//	      decodable so one column can be faulted in without its
//	      neighbors
//	EDGE  per edge type — forward and reverse alike — the adjacency
//	      lists in CSR form: ascending sources, offsets, and the
//	      concatenated target runs (targets in insertion order), each
//	      array fixed-width uint32 LE so a load is a bulk conversion
//	      with exact preallocation — at open when resident, deferred
//	      to each edge type's first traversal when paged
//	STAT  per-type counts and attribute NDVs, then per edge type
//	      (EDGE's order) a degree summary and log2 histogram: written
//	      so version-2 bytes stay unchanged, checksummed at open,
//	      decoded by nothing
//
// Integrity and compatibility: a file that is not a snapshot fails with
// ErrBadMagic; a snapshot written by a different format version fails
// with *VersionError; a snapshot whose bytes do not decode — bad
// checksum, truncated section, out-of-range reference, impossible count
// — fails with *CorruptError naming the section and reason. Decoding
// never panics on hostile input. Every column is checked against its
// own checksum when it is resolved. A resident open also verifies
// every section's checksum, NCOL's included, before decoding; a paged
// open verifies every section it decodes at open and defers NCOL
// integrity to the per-column checksums at fault time, so damage in a
// column that is never queried is never even read. The version is a single ratchet: readers refuse
// versions they do not know rather than guessing, and format changes
// bump it (see docs/SNAPSHOT.md for the compat policy).
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/lru"
	"repro/internal/tgm"
	"repro/internal/value"
)

// Version is the current snapshot format version. Version 2 split the
// version-1 NODE section into NSKL + NCOL so columns can load lazily.
const Version = 2

// magic identifies an .etsnap file. The leading 0x89 (non-ASCII) and
// trailing \n catch text-mode mangling, PNG-style.
var magic = [8]byte{0x89, 'E', 'T', 'S', 'N', 'A', 'P', '\n'}

// Section tags of format version 2.
const (
	secMeta   = "META"
	secSchema = "SCHM"
	secSkel   = "NSKL"
	secCols   = "NCOL"
	secEdges  = "EDGE"
	secStats  = "STAT"
)

// castagnoli is the CRC-32C table used for section checksums (hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerFixed is the byte length of the fixed header before the
// section table.
const headerFixed = 8 + 4 + 4

// sectionEntrySize is the byte length of one section-table entry.
const sectionEntrySize = 4 + 8 + 8 + 4

// SectionInfo describes one section of a loaded snapshot.
type SectionInfo struct {
	Tag    string
	Offset uint64
	Length uint64
	CRC32  uint32
}

// Info summarizes a loaded snapshot file.
type Info struct {
	// Version is the file's format version.
	Version uint32
	// Bytes is the total file size.
	Bytes int64
	// Nodes and Edges are the instance graph's counts (from META,
	// cross-checked against the decoded graph).
	Nodes, Edges int
	// Sections lists the file's sections in table order.
	Sections []SectionInfo
}

// Snapshot is a TGDB reconstructed from disk: the schema graph, the
// frozen instance graph, and file metadata.
type Snapshot struct {
	Schema *tgm.SchemaGraph
	Graph  *tgm.InstanceGraph
	Info   Info
}

// Save writes g as a version-2 snapshot to w and returns the number of
// bytes written. The graph must be frozen: a snapshot of a graph that
// can still change would capture an arbitrary intermediate state, and
// every consumer of the format assumes the immutability contract.
// Saving an out-of-core graph faults every column through its source.
func Save(w io.Writer, g *tgm.InstanceGraph) (int64, error) {
	if g == nil {
		return 0, fmt.Errorf("snapshot: nil graph")
	}
	if !g.Frozen() {
		return 0, fmt.Errorf("snapshot: graph is not frozen; freeze it before saving")
	}
	nskl, ncol, err := encodeNodeSections(g)
	if err != nil {
		return 0, fmt.Errorf("snapshot: encoding node columns: %w", err)
	}
	edges, err := encodeEdges(g)
	if err != nil {
		return 0, fmt.Errorf("snapshot: encoding edges: %w", err)
	}
	stat, err := encodeStats(g)
	if err != nil {
		return 0, fmt.Errorf("snapshot: encoding statistics: %w", err)
	}
	type section struct {
		tag     string
		payload []byte
	}
	sections := []section{
		{secMeta, encodeMeta(g)},
		{secSchema, encodeSchema(g.Schema())},
		{secSkel, nskl},
		{secCols, ncol},
		{secEdges, edges},
		{secStats, stat},
	}

	header := make([]byte, 0, headerFixed+len(sections)*sectionEntrySize)
	header = append(header, magic[:]...)
	header = binary.LittleEndian.AppendUint32(header, Version)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(sections)))
	offset := uint64(headerFixed + len(sections)*sectionEntrySize)
	for _, s := range sections {
		header = append(header, s.tag...)
		header = binary.LittleEndian.AppendUint64(header, offset)
		header = binary.LittleEndian.AppendUint64(header, uint64(len(s.payload)))
		header = binary.LittleEndian.AppendUint32(header, crc32.Checksum(s.payload, castagnoli))
		offset += uint64(len(s.payload))
	}

	written := int64(0)
	n, err := w.Write(header)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("snapshot: writing header: %w", err)
	}
	for _, s := range sections {
		n, err := w.Write(s.payload)
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("snapshot: writing %s section: %w", s.tag, err)
		}
	}
	return written, nil
}

// SaveFile writes g as a snapshot at path (atomically: a temp file in
// the same directory, renamed into place on success) and returns the
// file size.
func SaveFile(path string, g *tgm.InstanceGraph) (int64, error) {
	tmp, err := os.CreateTemp(dirOf(path), ".etsnap-*")
	if err != nil {
		return 0, fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	n, err := Save(tmp, g)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return 0, err
	}
	return n, nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i+1]
		}
	}
	return "."
}

// Load reads and decodes the snapshot at path, reconstructing a frozen
// instance graph. Failures are typed: a
// non-snapshot file is ErrBadMagic, a version mismatch is
// *VersionError, undecodable bytes are *CorruptError.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading %s: %w", path, err)
	}
	return Decode(data)
}

// Decode reconstructs a snapshot from its serialized bytes (the
// in-memory form of Load; Load is ReadFile + Decode). It is the
// resident policy of the one open: every section's checksum is
// verified, NCOL's included, and every column and edge type is decoded
// before Decode returns.
//
// Aliasing contract: decoding reads directly from sub-slices of data —
// there is no intermediate per-section copy — and everything the
// returned Snapshot retains is freshly built (string values copy their
// bytes, columns and adjacency arrays are newly decoded slices). The
// caller may therefore reuse or discard data as soon as Decode returns;
// nothing in the result aliases it.
func Decode(data []byte) (*Snapshot, error) {
	snap, _, err := open(data, nil, 0)
	return snap, err
}

// open is the one decoder behind Decode, Load and LazyLoad. It verifies
// the checksums of META, SCHM, NSKL, EDGE and STAT, decodes META, SCHM
// and NSKL, walks the EDGE directory once into one loader per edge
// type, and resolves a column only through columnSource.load (range
// check, per-column CRC-32C, decodeColumn). STAT is never decoded.
// What remains is the residency policy, chosen by file:
//
//   - resident (file nil): NCOL's whole-section checksum is verified
//     too, every column is installed and every edge type converted now,
//     and nothing returned references data.
//   - paged: the column source over file stays attached, faulting
//     columns through a pool of budget sections, and each edge type's
//     loader runs on its first traversal (the loaders alias data).
//
// The returned columnSource is nil on the resident policy.
func open(data []byte, file *snapFile, budget int) (*Snapshot, *columnSource, error) {
	paged := file != nil
	// A paged open skips the NCOL whole-section checksum: verifying it
	// would read every column byte, exactly the O(corpus) work paging
	// exists to avoid. Each column's own checksum is verified whenever
	// it is resolved, on both policies.
	sections, info, err := parseSections(data, func(tag string) bool { return paged && tag == secCols })
	if err != nil {
		return nil, nil, err
	}
	m, err := decodeMeta(sections[secMeta])
	if err != nil {
		return nil, nil, err
	}
	schema, edgeTypeOrder, err := decodeSchema(sections[secSchema], m)
	if err != nil {
		return nil, nil, err
	}
	graph, dir, err := decodeSkeleton(sections[secSkel], schema, m)
	if err != nil {
		return nil, nil, err
	}
	edges, err := decodeEdgeDir(sections[secEdges], edgeTypeOrder)
	if err != nil {
		return nil, nil, err
	}
	src := &columnSource{
		ncolLen: uint64(len(sections[secCols])),
		types:   make(map[string]typeCols, len(dir)),
	}
	for _, tc := range dir {
		src.types[tc.typeName] = tc
		src.totalSections += len(tc.cols)
	}
	if paged {
		src.file = file
		src.pool = lru.New[colKey, value.Column](budget)
		for _, s := range info.Sections {
			if s.Tag == secCols {
				src.ncolOff = s.Offset
			}
		}
		if err := graph.SetColumnSource(src); err != nil {
			return nil, nil, corrupt(secSkel, "attaching column source: %v", err)
		}
		for _, e := range edges {
			// The loader reads the mapping inside file.Read: a
			// concurrent LazySnapshot.Close waits for it, and after
			// Close it fails with ErrClosed instead of faulting.
			load := func() (srcs []tgm.NodeID, offs []int32, targets []tgm.NodeID, err error) {
				if rerr := file.Read(func() error {
					srcs, offs, targets, err = e.load()
					return err
				}); rerr != nil && err == nil {
					err = fmt.Errorf("snapshot: edge type %q: %w", e.name, rerr)
				}
				return srcs, offs, targets, err
			}
			if err := graph.InstallAdjacencyDeferred(e.name, e.targets, load); err != nil {
				return nil, nil, corrupt(secEdges, "registering %q adjacency: %v", e.name, err)
			}
		}
	} else {
		src.ncol = sections[secCols]
		for _, tc := range dir {
			for ai := range tc.cols {
				col, err := src.load(tc.typeName, ai)
				if err != nil {
					return nil, nil, err
				}
				if err := graph.InstallColumn(tc.typeName, ai, col); err != nil {
					return nil, nil, corrupt(secCols, "installing column %s[%d]: %v", tc.typeName, ai, err)
				}
			}
		}
		for _, e := range edges {
			srcs, offs, targets, err := e.load()
			if err == nil {
				err = graph.InstallAdjacency(e.name, srcs, offs, targets)
			}
			if err != nil {
				return nil, nil, corrupt(secEdges, "installing %q adjacency: %v", e.name, err)
			}
		}
		src = nil
	}
	// The graph is complete: freeze it before anyone can observe it.
	graph.Freeze()
	if n := graph.NumNodes(); n != m.nodes {
		return nil, nil, corrupt(secMeta, "node count mismatch: META says %d, NSKL decoded %d", m.nodes, n)
	}
	if n := graph.NumEdges(); n != m.edges {
		return nil, nil, corrupt(secMeta, "edge count mismatch: META says %d, EDGE decoded %d", m.edges, n)
	}
	info.Nodes, info.Edges = m.nodes, m.edges
	return &Snapshot{Schema: schema, Graph: graph, Info: info}, src, nil
}

// parseSections validates magic, version, and the section table, and
// returns the payload byte ranges (aliases of data). Each section's
// checksum is verified unless skipCRC reports the tag should be
// deferred — the paged open skips the bulk NCOL section, whose
// integrity is re-established per column at fault time.
func parseSections(data []byte, skipCRC func(tag string) bool) (map[string][]byte, Info, error) {
	info := Info{Bytes: int64(len(data))}
	if len(data) < headerFixed {
		return nil, info, ErrBadMagic
	}
	if [8]byte(data[:8]) != magic {
		return nil, info, ErrBadMagic
	}
	info.Version = binary.LittleEndian.Uint32(data[8:12])
	if info.Version != Version {
		return nil, info, &VersionError{Got: info.Version, Want: Version}
	}
	count := int(binary.LittleEndian.Uint32(data[12:16]))
	tableEnd := headerFixed + count*sectionEntrySize
	if count < 0 || count > 64 || tableEnd > len(data) {
		return nil, info, corrupt("header", "section table (%d entries) exceeds file size %d", count, len(data))
	}
	sections := make(map[string][]byte, count)
	for i := 0; i < count; i++ {
		e := data[headerFixed+i*sectionEntrySize:]
		tag := string(e[:4])
		off := binary.LittleEndian.Uint64(e[4:12])
		length := binary.LittleEndian.Uint64(e[12:20])
		sum := binary.LittleEndian.Uint32(e[20:24])
		if off < uint64(tableEnd) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, info, corrupt(tag, "section range [%d,+%d) exceeds file size %d", off, length, len(data))
		}
		payload := data[off : off+length]
		if skipCRC == nil || !skipCRC(tag) {
			if got := crc32.Checksum(payload, castagnoli); got != sum {
				return nil, info, corrupt(tag, "checksum mismatch: stored %08x, computed %08x", sum, got)
			}
		}
		if _, dup := sections[tag]; dup {
			return nil, info, corrupt(tag, "duplicate section")
		}
		sections[tag] = payload
		info.Sections = append(info.Sections, SectionInfo{Tag: tag, Offset: off, Length: length, CRC32: sum})
	}
	for _, tag := range []string{secMeta, secSchema, secSkel, secCols, secEdges, secStats} {
		if _, ok := sections[tag]; !ok {
			return nil, info, corrupt(tag, "section missing")
		}
	}
	return sections, info, nil
}
