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
	"math/bits"

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
			encodeColumn(cols, col)
			payload := cols.buf[start:]
			skel.u(uint64(start))
			skel.u(uint64(len(payload)))
			skel.u(uint64(crc32.Checksum(payload, castagnoli)))
		}
	}
	return skel.buf, cols.buf, nil
}

// encodeColumn writes one column payload: the tag array, one kind byte
// per row, then the non-null rows' payloads in row order, read straight
// from the column's payload words.
func encodeColumn(e *enc, col value.Column) {
	kinds, nums := col.Kinds(), col.Nums()
	for _, k := range kinds {
		e.b(byte(k))
	}
	for i, k := range kinds {
		switch k {
		case value.KindInt:
			e.i(int64(nums[i]))
		case value.KindFloat:
			e.buf = binary.LittleEndian.AppendUint64(e.buf, nums[i])
		case value.KindString:
			e.str(col.Str(i))
		case value.KindBool:
			e.b(byte(nums[i]))
		}
	}
}

// encodeEdges writes every edge type's adjacency lists in CSR form:
// ascending sources, an offset array, and the concatenated target
// runs (each source's targets in insertion order — exactly what
// Neighbors must return after a load). The three arrays are
// fixed-width little-endian uint32 so loading is a bulk conversion
// with exact preallocation instead of a varint decode per edge; boot
// latency buys the ~2× byte cost back many times over. Saving a paged
// graph loads each edge type, so a damaged backing snapshot surfaces
// here as a typed error.
func encodeEdges(g *tgm.InstanceGraph) ([]byte, error) {
	e := &enc{}
	ets := edgeTypeOrder(g.Schema())
	e.u(uint64(len(ets)))
	for _, et := range ets {
		adj := g.Adjacency(et.Name)
		if err := adj.Ensure(); err != nil {
			return nil, err
		}
		var srcs []tgm.NodeID
		total := 0
		for _, src := range g.NodesOfType(et.Source) {
			if d := adj.Degree(src); d > 0 {
				srcs = append(srcs, src)
				total += d
			}
		}
		e.str(et.Name)
		e.u(uint64(len(srcs)))
		e.u(uint64(total))
		for _, src := range srcs {
			e.u32(uint32(src))
		}
		off := uint32(0)
		e.u32(0)
		for _, src := range srcs {
			off += uint32(adj.Degree(src))
			e.u32(off)
		}
		for _, src := range srcs {
			for _, dst := range adj.Neighbors(src) {
				e.u32(uint32(dst))
			}
		}
	}
	return e.buf, nil
}

// histBuckets is the number of log2 out-degree buckets STAT keeps per
// edge type: bucket b counts source nodes whose out-degree d satisfies
// 2^b <= d < 2^(b+1), the last bucket also every larger degree.
const histBuckets = 16

// encodeStats writes STAT, which format version 2 keeps and no reader
// decodes: per node type (schema order) the instance count and
// per-attribute NDVs (attribute order implied by the type), then per
// edge type (edgeTypeOrder) the edge count, the number of source
// nodes, those with an out-edge, the largest out-degree, the mean
// fan-out over all source nodes (0 for none) and the log2 histogram.
func encodeStats(g *tgm.InstanceGraph) ([]byte, error) {
	e := &enc{}
	for _, nt := range g.Schema().NodeTypes() {
		ndv, err := countNDV(g, nt)
		if err != nil {
			return nil, err
		}
		e.u(uint64(len(g.NodesOfType(nt.Name))))
		for _, n := range ndv {
			e.u(uint64(n))
		}
	}
	for _, et := range edgeTypeOrder(g.Schema()) {
		adj := g.Adjacency(et.Name)
		if err := adj.Ensure(); err != nil {
			return nil, err
		}
		srcs := g.NodesOfType(et.Source)
		var count, withOut, maxDegree int
		var hist [histBuckets]int
		for _, id := range srcs {
			d := adj.Degree(id)
			if d == 0 {
				continue
			}
			count += d
			withOut++
			maxDegree = max(maxDegree, d)
			hist[min(bits.Len(uint(d))-1, histBuckets-1)]++
		}
		fanout := 0.0
		if len(srcs) > 0 {
			fanout = float64(count) / float64(len(srcs))
		}
		e.u(uint64(count))
		e.u(uint64(len(srcs)))
		e.u(uint64(withOut))
		e.u(uint64(maxDegree))
		e.f64(fanout)
		for _, h := range hist {
			e.u(uint64(h))
		}
	}
	return e.buf, nil
}

// countNDV returns the number of distinct non-null values of each of
// nt's attributes, in attribute order: STAT's node part.
func countNDV(g *tgm.InstanceGraph, nt *tgm.NodeType) ([]int, error) {
	ndv := make([]int, len(nt.Attrs))
	for ai := range nt.Attrs {
		col, err := g.AttrColumn(nt.Name, ai)
		if err != nil {
			return nil, err
		}
		distinct := make(map[string]struct{}, col.Len())
		for r := 0; r < col.Len(); r++ {
			if col.Kind(r) != value.KindNull {
				distinct[col.At(r).Key()] = struct{}{}
			}
		}
		ndv[ai] = len(distinct)
	}
	return ndv, nil
}
