package snapshot

// Section encoders. All integers are varints (unsigned unless noted),
// strings are length-prefixed, floats are 8-byte little-endian IEEE 754
// bits. Node attributes are stored column-major: per column, a tag
// array of value kinds followed by the non-null payloads in row order —
// the columnar shape the in-memory engine uses, so a future reader can
// scan one attribute without touching the others.

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"repro/internal/stats"
	"repro/internal/tgm"
	"repro/internal/value"
)

// enc is an append-only buffer of varint/string/float primitives.
type enc struct {
	buf []byte
}

func (e *enc) u(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) b(v byte)   { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}
func (e *enc) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.u(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// edgeTypeOrder enumerates every edge type — forward and reverse alike
// — in per-source out-edge order: for each node type in schema
// insertion order, that type's OutEdges in their insertion order. This
// is the one edge-type ordering the format uses everywhere (SCHM, EDGE,
// STAT), chosen because re-adding edge types in exactly this order
// reproduces each OutEdges list — the order the presentation layer
// derives neighbor columns from.
func edgeTypeOrder(s *tgm.SchemaGraph) []*tgm.EdgeType {
	var out []*tgm.EdgeType
	for _, nt := range s.NodeTypes() {
		out = append(out, s.OutEdges(nt.Name)...)
	}
	return out
}

// encodeMeta writes the cross-check counts: nodes, directed edges, node
// types, edge types.
func encodeMeta(g *tgm.InstanceGraph) []byte {
	e := &enc{}
	e.u(uint64(g.NumNodes()))
	e.u(uint64(g.NumEdges()))
	e.u(uint64(len(g.Schema().NodeTypes())))
	e.u(uint64(len(edgeTypeOrder(g.Schema()))))
	return e.buf
}

// encodeSchema writes the schema graph: node types in insertion order,
// then edge types in edgeTypeOrder.
func encodeSchema(s *tgm.SchemaGraph) []byte {
	e := &enc{}
	nts := s.NodeTypes()
	e.u(uint64(len(nts)))
	for _, nt := range nts {
		e.str(nt.Name)
		e.str(nt.Label)
		e.str(nt.Key)
		e.b(byte(nt.Kind))
		e.str(nt.SourceTable)
		e.u(uint64(len(nt.Attrs)))
		for _, a := range nt.Attrs {
			e.str(a.Name)
			e.b(byte(a.Type))
		}
	}
	ets := edgeTypeOrder(s)
	e.u(uint64(len(ets)))
	for _, et := range ets {
		e.str(et.Name)
		e.str(et.Source)
		e.str(et.Target)
		e.str(et.Label)
		e.b(byte(et.Kind))
		e.str(et.Reverse)
		e.str(et.SourceTable)
	}
	return e.buf
}

// encodeNodeSections writes the two node sections of format version 2:
//
//   - NSKL (skeleton): per node type in schema order, the type's global
//     node IDs (delta-encoded, ascending — insertion order within a
//     type is ID order) followed by a column directory: per attribute,
//     the column payload's offset and length within NCOL and its
//     CRC-32C. The skeleton is everything a lazy open must decode.
//   - NCOL (columns): the concatenated column payloads, one per
//     (type, attribute): a tag array of one kind byte per row, then the
//     non-null payloads in row order. Each payload is independently
//     decodable given its row count (from NSKL), which is what lets the
//     pager fault in one column without touching its neighbors.
//
// Saving an out-of-core graph faults each column through its source,
// so a damaged backing snapshot surfaces here as a typed error.
func encodeNodeSections(g *tgm.InstanceGraph) (nskl, ncol []byte, err error) {
	skel, cols := &enc{}, &enc{}
	for _, nt := range g.Schema().NodeTypes() {
		ids := g.NodesOfType(nt.Name)
		skel.u(uint64(len(ids)))
		prev := uint64(0)
		for i, id := range ids {
			cur := uint64(id)
			if i == 0 {
				skel.u(cur)
			} else {
				skel.u(cur - prev) // ascending: always ≥ 1
			}
			prev = cur
		}
		for ai := range nt.Attrs {
			col, err := g.AttrColumn(nt.Name, ai)
			if err != nil {
				return nil, nil, err
			}
			start := len(cols.buf)
			// Tag array: one kind byte per row.
			for _, v := range col {
				cols.b(byte(v.Kind()))
			}
			// Payloads for the non-null rows, in row order.
			for _, v := range col {
				encodeValuePayload(cols, v)
			}
			payload := cols.buf[start:]
			skel.u(uint64(start))
			skel.u(uint64(len(payload)))
			skel.u(uint64(crc32.Checksum(payload, castagnoli)))
		}
	}
	return skel.buf, cols.buf, nil
}

// encodeValuePayload writes a value's payload (its kind having been
// written in the column's tag array). NULL has no payload.
func encodeValuePayload(e *enc, v value.V) {
	switch v.Kind() {
	case value.KindInt:
		e.i(v.AsInt())
	case value.KindFloat:
		e.f64(v.AsFloat())
	case value.KindString:
		e.str(v.AsString())
	case value.KindBool:
		if v.AsBool() {
			e.b(1)
		} else {
			e.b(0)
		}
	}
}

// encodeEdges writes every edge type's adjacency lists in CSR form:
// ascending sources, an offset array, and the concatenated target
// runs (each source's targets in insertion order — exactly what
// Neighbors must return after a load). The three arrays are
// fixed-width little-endian uint32 so loading is a bulk conversion
// with exact preallocation instead of a varint decode per edge; boot
// latency buys the ~2× byte cost back many times over.
func encodeEdges(g *tgm.InstanceGraph) []byte {
	e := &enc{}
	ets := edgeTypeOrder(g.Schema())
	e.u(uint64(len(ets)))
	for _, et := range ets {
		e.str(et.Name)
		srcs := g.NodesOfType(et.Source)
		withOut, total := 0, 0
		for _, src := range srcs {
			if d := g.Degree(src, et.Name); d > 0 {
				withOut++
				total += d
			}
		}
		e.u(uint64(withOut))
		e.u(uint64(total))
		for _, src := range srcs {
			if g.Degree(src, et.Name) > 0 {
				e.u32(uint32(src))
			}
		}
		off := uint32(0)
		e.u32(0)
		for _, src := range srcs {
			if d := g.Degree(src, et.Name); d > 0 {
				off += uint32(d)
				e.u32(off)
			}
		}
		for _, src := range srcs {
			for _, dst := range g.Neighbors(src, et.Name) {
				e.u32(uint32(dst))
			}
		}
	}
	return e.buf
}

// encodeStats writes the graph statistics: per node type (schema
// order) the instance count and per-attribute NDVs (attribute order
// implied by the type), per edge type (edgeTypeOrder) the degree
// summary and log2 histogram.
func encodeStats(g *tgm.InstanceGraph) []byte {
	st := stats.For(g)
	e := &enc{}
	for _, nt := range g.Schema().NodeTypes() {
		ns := st.Nodes[nt.Name]
		e.u(uint64(ns.Count))
		for _, a := range nt.Attrs {
			e.u(uint64(ns.NDV[a.Name]))
		}
	}
	for _, et := range edgeTypeOrder(g.Schema()) {
		es := st.Edges[et.Name]
		e.u(uint64(es.Count))
		e.u(uint64(es.Sources))
		e.u(uint64(es.SourcesWithOut))
		e.u(uint64(es.MaxOutDegree))
		e.f64(es.Fanout)
		for _, h := range es.Hist {
			e.u(uint64(h))
		}
	}
	return e.buf
}
