package snapshot

// Section decoders. Every read is bounds-checked through dec — a
// truncated or hostile payload surfaces as a *CorruptError naming the
// section, never a panic or a runaway allocation (element counts are
// validated against the bytes that remain to encode them).

import (
	"encoding/binary"
	"math"

	"repro/internal/snapshot/idcol"
	"repro/internal/stats"
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
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, corrupt(d.sec, "truncated or malformed varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) i() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, corrupt(d.sec, "truncated or malformed varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) b() (byte, error) {
	if d.remaining() < 1 {
		return 0, corrupt(d.sec, "truncated at offset %d", d.off)
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *dec) f64() (float64, error) {
	if d.remaining() < 8 {
		return 0, corrupt(d.sec, "truncated float at offset %d", d.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
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

// slice returns the column's payload bytes out of the NCOL section.
func (cm colMeta) slice(ncol []byte) ([]byte, error) {
	if cm.off > uint64(len(ncol)) || cm.length > uint64(len(ncol))-cm.off {
		return nil, corrupt(secSkel, "column range [%d,+%d) exceeds NCOL size %d", cm.off, cm.length, len(ncol))
	}
	return ncol[cm.off : cm.off+cm.length : cm.off+cm.length], nil
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
// payload within NCOL for the caller to install eagerly (Decode) or
// fault in on demand (LazyLoad).
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
// payloads) into a freshly allocated value slice of the given row
// count. Decoded values copy every byte they keep, so the payload (and
// any mmap view behind it) is not retained.
func decodeColumn(payload []byte, rows int, typeName string, ai int) ([]value.V, error) {
	d := &dec{buf: payload, sec: secCols}
	col := make([]value.V, rows)
	if d.remaining() < rows {
		return nil, corrupt(secCols, "type %q attr %d: truncated tag array", typeName, ai)
	}
	tags := d.buf[d.off : d.off+rows]
	d.off += rows
	for i := 0; i < rows; i++ {
		v, err := decodeValuePayload(d, value.Kind(tags[i]))
		if err != nil {
			return nil, err
		}
		col[i] = v
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return col, nil
}

// decodeValuePayload reads one value of the tagged kind.
func decodeValuePayload(d *dec, k value.Kind) (value.V, error) {
	switch k {
	case value.KindNull:
		return value.Null, nil
	case value.KindInt:
		v, err := d.i()
		if err != nil {
			return value.Null, err
		}
		return value.Int(v), nil
	case value.KindFloat:
		v, err := d.f64()
		if err != nil {
			return value.Null, err
		}
		return value.Float(v), nil
	case value.KindString:
		v, err := d.str()
		if err != nil {
			return value.Null, err
		}
		return value.Str(v), nil
	case value.KindBool:
		v, err := d.b()
		if err != nil {
			return value.Null, err
		}
		return value.Bool(v != 0), nil
	default:
		return value.Null, corrupt(d.sec, "unknown value kind %d", k)
	}
}

// decodeEdges rebuilds every adjacency list in CSR form and installs
// each edge type wholesale (InstallAdjacency) — three array
// installations per type instead of one map insert per edge, and
// Neighbors still returns exactly the serialized sequences. The
// on-disk arrays are fixed-width little-endian uint32, so each decode
// is one exact allocation plus a tight conversion loop — the boot
// path's cost is O(edges) with a constant small enough that the
// skeleton open stays far below a column decode.
func decodeEdges(buf []byte, g *tgm.InstanceGraph, order []*tgm.EdgeType, m meta) error {
	d := &dec{buf: buf, sec: secEdges}
	nET, err := d.count("edge type")
	if err != nil {
		return err
	}
	if nET != len(order) {
		return corrupt(secEdges, "edge type count %d does not match schema %d", nET, len(order))
	}
	for _, et := range order {
		name, err := d.str()
		if err != nil {
			return err
		}
		if name != et.Name {
			return corrupt(secEdges, "edge type order mismatch: got %q, want %q", name, et.Name)
		}
		nSrc, err := d.count("source")
		if err != nil {
			return err
		}
		nTgt, err := d.count("target")
		if err != nil {
			return err
		}
		srcBytes, err := d.raw(4*nSrc, "source array")
		if err != nil {
			return err
		}
		offBytes, err := d.raw(4*(nSrc+1), "offset array")
		if err != nil {
			return err
		}
		tgtBytes, err := d.raw(4*nTgt, "target array")
		if err != nil {
			return err
		}
		// Pure width conversion (the shared ID-column codec): endpoint
		// ranges, types, and offset monotonicity are validated once by
		// InstallAdjacency below, so the loops carry no branches.
		srcs := idcol.Decode(srcBytes, nSrc)
		offs := make([]int32, nSrc+1)
		for i := range offs {
			offs[i] = int32(binary.LittleEndian.Uint32(offBytes[4*i:]))
		}
		targets := idcol.Decode(tgtBytes, nTgt)
		if err := g.InstallAdjacency(name, srcs, offs, targets); err != nil {
			return corrupt(secEdges, "installing %q adjacency: %v", name, err)
		}
	}
	return d.done()
}

// decodeEdgesDeferred walks the EDGE section's per-type directory —
// name, counts, and the byte spans of the three fixed-width arrays,
// O(edge types), no per-edge work — and registers each type's CSR
// arrays as a deferred load: conversion, validation, and installation
// run on the first traversal of that edge type. The section's
// whole-section CRC was verified at open, so deferral moves only the
// O(edges) materialization cost off the boot path, not any integrity
// check. The captured sub-slices alias the open snapshot file (mmap),
// so a first traversal after LazySnapshot.Close would read a closed
// mapping — the same lifetime contract column faults already have.
func decodeEdgesDeferred(buf []byte, g *tgm.InstanceGraph, order []*tgm.EdgeType, m meta) error {
	d := &dec{buf: buf, sec: secEdges}
	nET, err := d.count("edge type")
	if err != nil {
		return err
	}
	if nET != len(order) {
		return corrupt(secEdges, "edge type count %d does not match schema %d", nET, len(order))
	}
	for _, et := range order {
		name, err := d.str()
		if err != nil {
			return err
		}
		if name != et.Name {
			return corrupt(secEdges, "edge type order mismatch: got %q, want %q", name, et.Name)
		}
		nSrc, err := d.count("source")
		if err != nil {
			return err
		}
		nTgt, err := d.count("target")
		if err != nil {
			return err
		}
		srcBytes, err := d.raw(4*nSrc, "source array")
		if err != nil {
			return err
		}
		offBytes, err := d.raw(4*(nSrc+1), "offset array")
		if err != nil {
			return err
		}
		tgtBytes, err := d.raw(4*nTgt, "target array")
		if err != nil {
			return err
		}
		load := func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
			srcs := idcol.Decode(srcBytes, nSrc)
			offs := make([]int32, nSrc+1)
			for i := range offs {
				offs[i] = int32(binary.LittleEndian.Uint32(offBytes[4*i:]))
			}
			targets := idcol.Decode(tgtBytes, nTgt)
			return srcs, offs, targets, nil
		}
		if err := g.InstallAdjacencyDeferred(name, nTgt, load); err != nil {
			return corrupt(secEdges, "registering %q adjacency: %v", name, err)
		}
	}
	return d.done()
}

// decodeStats rebuilds the graph statistics and attaches them to the
// (already frozen) graph, so stats.For never recollects after a load.
func decodeStats(buf []byte, g *tgm.InstanceGraph, order []*tgm.EdgeType) error {
	d := &dec{buf: buf, sec: secStats}
	sg := &stats.Graph{
		Nodes: make(map[string]stats.NodeStats),
		Edges: make(map[string]stats.EdgeStats),
	}
	for _, nt := range g.Schema().NodeTypes() {
		cnt, err := d.u()
		if err != nil {
			return err
		}
		ns := stats.NodeStats{Count: int(cnt), NDV: make(map[string]int, len(nt.Attrs))}
		for _, a := range nt.Attrs {
			ndv, err := d.u()
			if err != nil {
				return err
			}
			ns.NDV[a.Name] = int(ndv)
		}
		sg.Nodes[nt.Name] = ns
	}
	for _, et := range order {
		var es stats.EdgeStats
		fields := []*int{&es.Count, &es.Sources, &es.SourcesWithOut, &es.MaxOutDegree}
		for _, f := range fields {
			v, err := d.u()
			if err != nil {
				return err
			}
			*f = int(v)
		}
		fan, err := d.f64()
		if err != nil {
			return err
		}
		es.Fanout = fan
		for i := range es.Hist {
			h, err := d.u()
			if err != nil {
				return err
			}
			es.Hist[i] = int(h)
		}
		sg.Edges[et.Name] = es
	}
	if err := d.done(); err != nil {
		return err
	}
	stats.Attach(g, sg)
	return nil
}
