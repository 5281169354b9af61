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
// one fragment table per node type, and a row or a reference is one
// copy of it. The bytes are exactly what escaping each label per
// response produced: a string label is escaped as it is stored, any
// other label as value.V.Format renders it (appendJSONString either
// way).

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

// labelFrags holds one graph's fragment tables, one per node type,
// each built on first use and kept for the graph's lifetime under
// tgm.Memo's contract — AttrRank's: concurrent first calls share one
// build, a failed build memoizes nothing, and an unfrozen graph, which
// may still change, builds per call. The set lives on the graph itself
// (labelFragsOf), so it dies with the graph. On an out-of-core graph
// the tables live outside the column source's residency budget: the
// pager neither counts nor evicts them (the 38,000-paper corpus holds
// about 3.4 MB of them).
type labelFrags struct {
	g     *tgm.InstanceGraph
	types map[string]*tgm.Memo[*fragTable] // every node type, fixed at construction
}

// labelFragsOf returns graph g's fragment tables, publishing the
// (empty) set on the graph on the first request over g.
func labelFragsOf(g *tgm.InstanceGraph) *labelFrags {
	if lf := g.FragmentCache(); lf != nil {
		return lf.(*labelFrags)
	}
	lf := &labelFrags{g: g, types: map[string]*tgm.Memo[*fragTable]{}}
	for _, nt := range g.Schema().NodeTypes() {
		lf.types[nt.Name] = new(tgm.Memo[*fragTable])
	}
	return g.SetFragmentCache(lf).(*labelFrags)
}

// table returns the fragment table of the named node type, building it
// on first use.
func (lf *labelFrags) table(typeName string) (*fragTable, error) {
	return lf.types[typeName].Get(lf.g, func() (*fragTable, error) {
		return buildFragTable(lf.g, lf.g.Schema().NodeType(typeName))
	})
}

// size is the resident bytes of the built tables.
func (lf *labelFrags) size() int64 {
	var n int64
	for _, m := range lf.types {
		if t, ok := m.Peek(); ok {
			n += t.size()
		}
	}
	return n
}
