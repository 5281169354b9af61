package etable

import (
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/tgm"
	"repro/internal/value"
)

// TestEmptyNodeTypeRenders: a node type with no nodes opens as an empty
// table, and the type pointing at it renders its reference column as
// empty cells — on the graph as built with AddNode, and after a
// snapshot round trip loaded eagerly and lazily.
func TestEmptyNodeTypeRenders(t *testing.T) {
	schema := tgm.NewSchemaGraph()
	for _, nt := range []tgm.NodeType{
		{Name: "X", Kind: tgm.NodeEntity, Label: "name",
			Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}, {Name: "name", Type: value.KindString}}},
		{Name: "Z", Kind: tgm.NodeEntity, Label: "label",
			Attrs: []tgm.Attr{{Name: "label", Type: value.KindString}}},
	} {
		if _, err := schema.AddNodeType(nt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := schema.AddBidirectional(tgm.EdgeType{Name: "X→Z", Source: "X", Target: "Z", Kind: tgm.EdgeManyToMany}); err != nil {
		t.Fatal(err)
	}
	built := tgm.NewInstanceGraph(schema)
	for i, name := range []string{"a", "b", "c"} {
		if _, err := built.AddNode("X", []value.V{value.Int(int64(i)), value.Str(name)}); err != nil {
			t.Fatal(err)
		}
	}
	built.Freeze()

	check := func(form string, g *tgm.InstanceGraph) {
		t.Helper()
		open := func(typ string) *Result {
			t.Helper()
			p, err := Initiate(g.Schema(), typ)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Execute(g, p)
			if err != nil {
				t.Fatalf("%s: open %s: %v", form, typ, err)
			}
			return res
		}
		if res := open("Z"); res.NumRows() != 0 || len(res.Columns) == 0 {
			t.Errorf("%s: open Z = %d rows, %d columns; want 0 rows under its columns", form, res.NumRows(), len(res.Columns))
		}
		res := open("X")
		if res.NumRows() != 3 {
			t.Fatalf("%s: open X = %d rows, want 3", form, res.NumRows())
		}
		zCol := -1
		for i, c := range res.Columns {
			if c.Name == "Z" {
				zCol = i
			}
		}
		if zCol < 0 {
			t.Fatalf("%s: open X has no Z column", form)
		}
		for _, row := range res.Rows {
			if n := row.Cells[zCol].Count(); n != 0 {
				t.Errorf("%s: row %q Z cell = %d refs, want none", form, row.Label, n)
			}
		}
	}
	check("built", built)

	path := filepath.Join(t.TempDir(), "empty.etsnap")
	if _, err := snapshot.SaveFile(path, built); err != nil {
		t.Fatal(err)
	}
	eager, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	check("eager", eager.Graph)
	lazy, err := snapshot.LazyLoad(path, snapshot.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	check("lazy", lazy.Graph)
}
