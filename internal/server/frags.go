package server

import (
	"strconv"

	"repro/internal/tgm"
	"repro/internal/value"
)

// A reference is rendered from bytes encoded once per graph. Every
// entity reference a state response carries is {"id":<id>,"label":<l>},
// and every row opens {"node":<id>,"label":<l>, where <l> is the node's
// label as a JSON string. A frozen graph's labels never change, so the
// part both share — <id>,"label":<l> — is encoded once per node, into
// one fragment table per node type, held in the graph's derived-state
// registry (fragTableOf), and a row or a reference is one copy of it.
// The bytes are exactly what escaping each label per response produced:
// a string label is escaped as it is stored, any other label as
// value.V.Format renders it (appendJSONString either way).

// fragTable is one node type's fragments, aligned with
// NodesOfType: row r's fragment is buf[offs[r]:offs[r+1]], and node
// id's row is id-lo (tgm.InstanceGraph.TypeIDRange).
type fragTable struct {
	buf  []byte
	offs []int32
	lo   tgm.NodeID
}

// frag returns node id's fragment; id must be of the table's type.
func (t *fragTable) frag(id tgm.NodeID) []byte {
	r := int(id - t.lo)
	return t.buf[t.offs[r]:t.offs[r+1]]
}

// size is the table's resident bytes.
func (t *fragTable) size() int64 { return int64(len(t.buf) + 4*len(t.offs)) }

// buildFragTable encodes every fragment of node type nt from its label
// column. The column is read without a pin — an out-of-core graph
// faults it in like AttrRank does — so a failed build leaves nothing
// pinned, and its typed error (a *snapshot.CorruptError on a damaged
// section) is returned.
func buildFragTable(g *tgm.InstanceGraph, nt *tgm.NodeType) (*fragTable, error) {
	col, err := g.AttrColumn(nt.Name, nt.LabelIndex())
	if err != nil {
		return nil, err
	}
	ids := g.NodesOfType(nt.Name)
	lo, _ := g.TypeIDRange(nt.Name)
	t := &fragTable{offs: make([]int32, len(ids)+1), lo: lo}
	var buf []byte
	for r, id := range ids {
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, `,"label":`...)
		if col.Kind(r) == value.KindString {
			buf = appendJSONString(buf, col.Str(r))
		} else {
			buf = appendJSONString(buf, col.At(r).Format())
		}
		t.offs[r+1] = int32(len(buf))
	}
	t.buf = append([]byte(nil), buf...) // exact size: the table lives as long as the graph
	return t, nil
}

// fragKey is a node type's fragment table's key in the graph's
// derived-state registry (tgm.Derive).
type fragKey string

// fragTableOf returns the fragment table of g's node type typeName:
// derived state, built on first use and kept for the graph's lifetime —
// concurrent first calls share one build, a failed build keeps nothing,
// and an unfrozen graph, which may still change, builds per call. On an
// out-of-core graph the tables live outside the column source's
// residency budget: the pager neither counts nor evicts them (the
// 38,000-paper corpus holds about 3.4 MB of them).
func fragTableOf(g *tgm.InstanceGraph, typeName string) (*fragTable, error) {
	return tgm.Derive(g, fragKey(typeName), func() (*fragTable, error) {
		return buildFragTable(g, g.Schema().NodeType(typeName))
	})
}

// labelFragmentBytes is the resident bytes of g's built fragment
// tables; it builds none.
func labelFragmentBytes(g *tgm.InstanceGraph) int64 {
	var n int64
	for _, nt := range g.Schema().NodeTypes() {
		if t, ok := tgm.Peek[*fragTable](g, fragKey(nt.Name)); ok {
			n += t.size()
		}
	}
	return n
}
