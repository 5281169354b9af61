package snapshot

// Section decoders. Every read is bounds-checked through dec — a
// truncated or hostile payload surfaces as a *CorruptError naming the
// section, never a panic or a runaway allocation (element counts are
// validated against the bytes that remain to encode them).

import (
	"encoding/binary"
	"math"

	"repro/internal/tgm"
	"repro/internal/value"
)

// meta carries the META section's cross-check counts.
type meta struct {
	nodes, edges         int
	nodeTypes, edgeTypes int
}

// dec is a bounds-checked reader over one section's payload.
type dec struct {
	buf []byte
	off int
	sec string
}

func (d *dec) remaining() int { return len(d.buf) - d.off }

func (d *dec) u() (uint64, error) {
	v, n := uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, corrupt(d.sec, "truncated or malformed varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

// uvarint is binary.Uvarint that also rejects a varint padded with a
// trailing 0x00 byte (n == 0), so every value has exactly one
// encoding. One- and two-byte varints — most column payloads — decode
// inline.
func uvarint(buf []byte) (uint64, int) {
	if len(buf) > 1 && buf[0] >= 0x80 && buf[1]-1 < 0x7f {
		return uint64(buf[0]&0x7f) | uint64(buf[1])<<7, 2
	}
	if len(buf) > 0 && buf[0] < 0x80 {
		return uint64(buf[0]), 1
	}
	return uvarintLong(buf)
}

func uvarintLong(buf []byte) (uint64, int) {
	v, n := binary.Uvarint(buf)
	if n > 1 && buf[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// varint is binary.Varint, minimal as uvarint.
func varint(buf []byte) (int64, int) {
	x, n := uvarint(buf)
	return int64(x>>1) ^ -int64(x&1), n
}

func (d *dec) b() (byte, error) {
	if d.remaining() < 1 {
		return 0, corrupt(d.sec, "truncated at offset %d", d.off)
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *dec) str() (string, error) {
	n, err := d.u()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", corrupt(d.sec, "string length %d exceeds remaining %d bytes", n, d.remaining())
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// count reads an element count and rejects values no remaining payload
// could encode (each element is at least one byte), so a corrupt count
// cannot drive a giant allocation.
func (d *dec) count(what string) (int, error) {
	v, err := d.u()
	if err != nil {
		return 0, err
	}
	if v > uint64(d.remaining()) {
		return 0, corrupt(d.sec, "%s count %d exceeds remaining %d bytes", what, v, d.remaining())
	}
	return int(v), nil
}

// raw returns the next n bytes of the payload without copying.
func (d *dec) raw(n int, what string) ([]byte, error) {
	if n < 0 || n > d.remaining() {
		return nil, corrupt(d.sec, "%s (%d bytes) exceeds remaining %d bytes", what, n, d.remaining())
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// done rejects trailing bytes after a fully decoded section.
func (d *dec) done() error {
	if d.remaining() != 0 {
		return corrupt(d.sec, "%d trailing bytes after payload", d.remaining())
	}
	return nil
}

func decodeMeta(buf []byte) (meta, error) {
	d := &dec{buf: buf, sec: secMeta}
	var m meta
	for _, dst := range []*int{&m.nodes, &m.edges, &m.nodeTypes, &m.edgeTypes} {
		v, err := d.u()
		if err != nil {
			return m, err
		}
		if v > math.MaxInt32 {
			return m, corrupt(secMeta, "implausible count %d", v)
		}
		*dst = int(v)
	}
	return m, d.done()
}

// decodeSchema rebuilds the schema graph and returns the edge types in
// their serialized order (the order EDGE and STAT follow).
func decodeSchema(buf []byte, m meta) (*tgm.SchemaGraph, []*tgm.EdgeType, error) {
	d := &dec{buf: buf, sec: secSchema}
	s := tgm.NewSchemaGraph()
	nNT, err := d.count("node type")
	if err != nil {
		return nil, nil, err
	}
	if nNT != m.nodeTypes {
		return nil, nil, corrupt(secSchema, "node type count %d does not match META %d", nNT, m.nodeTypes)
	}
	for i := 0; i < nNT; i++ {
		var nt tgm.NodeType
		if nt.Name, err = d.str(); err != nil {
			return nil, nil, err
		}
		if nt.Label, err = d.str(); err != nil {
			return nil, nil, err
		}
		if nt.Key, err = d.str(); err != nil {
			return nil, nil, err
		}
		kind, err := d.b()
		if err != nil {
			return nil, nil, err
		}
		nt.Kind = tgm.NodeTypeKind(kind)
		if nt.SourceTable, err = d.str(); err != nil {
			return nil, nil, err
		}
		nAttrs, err := d.count("attribute")
		if err != nil {
			return nil, nil, err
		}
		nt.Attrs = make([]tgm.Attr, nAttrs)
		for ai := range nt.Attrs {
			if nt.Attrs[ai].Name, err = d.str(); err != nil {
				return nil, nil, err
			}
			ak, err := d.b()
			if err != nil {
				return nil, nil, err
			}
			nt.Attrs[ai].Type = value.Kind(ak)
		}
		if _, err := s.AddNodeType(nt); err != nil {
			return nil, nil, corrupt(secSchema, "node type %d: %v", i, err)
		}
	}
	nET, err := d.count("edge type")
	if err != nil {
		return nil, nil, err
	}
	if nET != m.edgeTypes {
		return nil, nil, corrupt(secSchema, "edge type count %d does not match META %d", nET, m.edgeTypes)
	}
	order := make([]*tgm.EdgeType, 0, nET)
	for i := 0; i < nET; i++ {
		var et tgm.EdgeType
		if et.Name, err = d.str(); err != nil {
			return nil, nil, err
		}
		if et.Source, err = d.str(); err != nil {
			return nil, nil, err
		}
		if et.Target, err = d.str(); err != nil {
			return nil, nil, err
		}
		if et.Label, err = d.str(); err != nil {
			return nil, nil, err
		}
		kind, err := d.b()
		if err != nil {
			return nil, nil, err
		}
		et.Kind = tgm.EdgeTypeKind(kind)
		if et.Reverse, err = d.str(); err != nil {
			return nil, nil, err
		}
		if et.SourceTable, err = d.str(); err != nil {
			return nil, nil, err
		}
		added, err := s.AddEdgeType(et)
		if err != nil {
			return nil, nil, corrupt(secSchema, "edge type %d: %v", i, err)
		}
		order = append(order, added)
	}
	return s, order, d.done()
}

// colMeta locates one attribute column's payload within NCOL.
type colMeta struct {
	off, length uint64
	crc         uint32
}

// typeCols is one node type's column directory.
type typeCols struct {
	typeName string
	rows     int
	cols     []colMeta
}

// decodeSkeleton rebuilds every node from the NSKL section, preserving
// global IDs: each type's ID list fixes which type owns each dense ID,
// and InstallNodes assigns the same IDs in one bulk pass. No attribute
// values are decoded — the returned directory locates each column's
// payload within NCOL for columnSource.load to resolve, all at open
// (resident) or on demand (paged).
func decodeSkeleton(buf []byte, schema *tgm.SchemaGraph, m meta) (*tgm.InstanceGraph, []typeCols, error) {
	d := &dec{buf: buf, sec: secSkel}
	nts := schema.NodeTypes()
	owner := make([]int32, m.nodes)
	for i := range owner {
		owner[i] = -1
	}
	dir := make([]typeCols, 0, len(nts))
	claimed := 0
	for ti, nt := range nts {
		n, err := d.count("node")
		if err != nil {
			return nil, nil, err
		}
		prev := uint64(0)
		for i := 0; i < n; i++ {
			delta, err := d.u()
			if err != nil {
				return nil, nil, err
			}
			id := delta
			if i > 0 {
				if delta == 0 {
					return nil, nil, corrupt(secSkel, "type %q: non-ascending node ID", nt.Name)
				}
				id = prev + delta
			}
			if id >= uint64(m.nodes) {
				return nil, nil, corrupt(secSkel, "type %q: node ID %d out of range [0,%d)", nt.Name, id, m.nodes)
			}
			if owner[id] != -1 {
				return nil, nil, corrupt(secSkel, "node ID %d claimed by two types", id)
			}
			owner[id] = int32(ti)
			prev = id
		}
		claimed += n
		tc := typeCols{typeName: nt.Name, rows: n, cols: make([]colMeta, len(nt.Attrs))}
		for ai := range nt.Attrs {
			var cm colMeta
			if cm.off, err = d.u(); err != nil {
				return nil, nil, err
			}
			if cm.length, err = d.u(); err != nil {
				return nil, nil, err
			}
			sum, err := d.u()
			if err != nil {
				return nil, nil, err
			}
			if sum > math.MaxUint32 {
				return nil, nil, corrupt(secSkel, "type %q attr %d: implausible checksum %d", nt.Name, ai, sum)
			}
			cm.crc = uint32(sum)
			tc.cols[ai] = cm
		}
		dir = append(dir, tc)
	}
	if claimed != m.nodes {
		return nil, nil, corrupt(secSkel, "%d node IDs assigned, META says %d", claimed, m.nodes)
	}
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	g := tgm.NewInstanceGraph(schema)
	if err := g.InstallNodes(owner); err != nil {
		return nil, nil, corrupt(secSkel, "installing nodes: %v", err)
	}
	return g, dir, nil
}

// decodeColumn decodes one column payload (tag array, then non-null
// payloads) of the given row count into a value.Column in one pass:
// each tag becomes the row's kind and each payload its word. The blob is
// one copy of the payload's bytes from the first string to the end of
// the last, so a STRING row's word locates its bytes in place and no
// string is copied on its own; the length prefixes and any non-string
// payloads between strings ride along. The result copies every byte it
// keeps, so the payload (and any mmap view behind it) is not retained.
// Every check makes decoding the inverse of encodeColumn: a payload that
// decodes re-encodes to the same bytes.
func decodeColumn(payload []byte, rows int, typeName string, ai int) (value.Column, error) {
	if len(payload) < rows {
		return value.Column{}, corrupt(secCols, "type %q attr %d: truncated tag array", typeName, ai)
	}
	kinds := make([]value.Kind, rows)
	nums := make([]uint64, rows)
	first, last := -1, 0 // the strings' span of the payload
	off := rows
	for i, tag := range payload[:rows] {
		k := value.Kind(tag)
		kinds[i] = k
		switch k {
		case value.KindNull:
		case value.KindInt:
			x, n := varint(payload[off:])
			if n <= 0 {
				return value.Column{}, corrupt(secCols, "truncated or malformed varint at offset %d", off)
			}
			nums[i] = uint64(x)
			off += n
		case value.KindFloat:
			if len(payload)-off < 8 {
				return value.Column{}, corrupt(secCols, "truncated float at offset %d", off)
			}
			nums[i] = binary.LittleEndian.Uint64(payload[off:])
			off += 8
		case value.KindString:
			x, n := uvarint(payload[off:])
			if n <= 0 {
				return value.Column{}, corrupt(secCols, "truncated or malformed varint at offset %d", off)
			}
			off += n
			if x > uint64(len(payload)-off) {
				return value.Column{}, corrupt(secCols, "string length %d exceeds remaining %d bytes", x, len(payload)-off)
			}
			if first < 0 {
				first = off
			}
			if uint64(off-first)+x > value.MaxBlob {
				return value.Column{}, corrupt(secCols, "type %q attr %d: strings past %d bytes", typeName, ai, uint64(value.MaxBlob))
			}
			nums[i] = uint64(off-first)<<32 | x
			off += int(x)
			last = off
		case value.KindBool:
			if off >= len(payload) {
				return value.Column{}, corrupt(secCols, "truncated at offset %d", off)
			}
			if nums[i] = uint64(payload[off]); nums[i] > 1 {
				return value.Column{}, corrupt(secCols, "type %q attr %d: BOOL byte %d", typeName, ai, nums[i])
			}
			off++
		default:
			return value.Column{}, corrupt(secCols, "unknown value kind %d", k)
		}
	}
	if off != len(payload) {
		return value.Column{}, corrupt(secCols, "%d trailing bytes after payload", len(payload)-off)
	}
	var blob string
	if first >= 0 {
		blob = string(payload[first:last])
	}
	col, err := value.MakeColumn(kinds, nums, blob)
	if err != nil {
		return value.Column{}, corrupt(secCols, "type %q attr %d: %v", typeName, ai, err)
	}
	return col, nil
}

// edgeLoader is one edge type's EDGE directory entry: its name, its
// edge count, and a loader converting its three fixed-width arrays.
type edgeLoader struct {
	name    string
	targets int
	load    tgm.AdjacencyLoader
}

// decodeEdgeDir walks the EDGE section's per-type directory — name,
// counts, and the byte spans of the three fixed-width CSR arrays,
// O(edge types), no per-edge work — into one loader per edge type, in
// schema order. A loader is a pure width conversion (the shared
// ID-column codec) into exact allocations; endpoint ranges, types and
// offset monotonicity are validated by InstallAdjacency or
// InstallAdjacencyDeferred, whichever the residency policy hands it to.
// A loader aliases buf: the resident open runs each one before
// returning, the paged one keeps them until each type's first
// traversal, over the open snapshot file.
func decodeEdgeDir(buf []byte, order []*tgm.EdgeType) ([]edgeLoader, error) {
	d := &dec{buf: buf, sec: secEdges}
	nET, err := d.count("edge type")
	if err != nil {
		return nil, err
	}
	if nET != len(order) {
		return nil, corrupt(secEdges, "edge type count %d does not match schema %d", nET, len(order))
	}
	out := make([]edgeLoader, 0, nET)
	for _, et := range order {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		if name != et.Name {
			return nil, corrupt(secEdges, "edge type order mismatch: got %q, want %q", name, et.Name)
		}
		nSrc, err := d.count("source")
		if err != nil {
			return nil, err
		}
		nTgt, err := d.count("target")
		if err != nil {
			return nil, err
		}
		srcBytes, err := d.raw(4*nSrc, "source array")
		if err != nil {
			return nil, err
		}
		offBytes, err := d.raw(4*(nSrc+1), "offset array")
		if err != nil {
			return nil, err
		}
		tgtBytes, err := d.raw(4*nTgt, "target array")
		if err != nil {
			return nil, err
		}
		out = append(out, edgeLoader{name: name, targets: nTgt, load: func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
			offs := make([]int32, nSrc+1)
			for i := range offs {
				offs[i] = int32(binary.LittleEndian.Uint32(offBytes[4*i:]))
			}
			return decodeIDs(srcBytes, nSrc), offs, decodeIDs(tgtBytes, nTgt), nil
		}})
	}
	return out, d.done()
}

// decodeIDs converts n node IDs stored as fixed-width little-endian
// uint32 — the EDGE section's CSR arrays — into a fresh slice. buf
// holds at least 4*n bytes: the caller checked the lengths.
func decodeIDs(buf []byte, n int) []tgm.NodeID {
	ids := make([]tgm.NodeID, n)
	for i := range ids {
		ids[i] = tgm.NodeID(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return ids
}
