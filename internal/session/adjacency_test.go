package session

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/etable"
	"repro/internal/tgm"
	"repro/internal/value"
)

// sectionError stands in for the typed error an out-of-core adjacency
// load fails with (a *snapshot.CorruptError, an I/O error).
type sectionError struct{ edge string }

func (e *sectionError) Error() string { return "adjacency section of " + e.edge + " unreadable" }

// TestFailedAdjacencyLoadIsAnErrorNotEmptyCells: over a lazily
// installed edge type whose loader fails, sorting by the neighbor
// column and rendering it used to read the failure as "no neighbours" —
// zero counts, empty cells, 200 OK. Both now return the loader's typed
// error, and the session keeps serving everything that does not touch
// the broken adjacency.
func TestFailedAdjacencyLoadIsAnErrorNotEmptyCells(t *testing.T) {
	schema := tgm.NewSchemaGraph()
	for _, nt := range []tgm.NodeType{
		{Name: "Papers", Kind: tgm.NodeEntity, Label: "title", Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}, {Name: "title", Type: value.KindString}}},
		{Name: "Authors", Kind: tgm.NodeEntity, Label: "name", Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}, {Name: "name", Type: value.KindString}}},
	} {
		if _, err := schema.AddNodeType(nt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := schema.AddBidirectional(tgm.EdgeType{Name: "Papers→Authors", Source: "Papers", Target: "Authors", Kind: tgm.EdgeManyToMany}); err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(schema)
	for i := 0; i < 3; i++ {
		if _, err := g.AddNode("Papers", []value.V{value.Int(int64(i)), value.Str(fmt.Sprintf("paper %d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := g.AddNode("Authors", []value.V{value.Int(int64(i)), value.Str(fmt.Sprintf("author %d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Papers→Authors fails to load; its reverse loads fine.
	if err := g.InstallAdjacencyDeferred("Papers→Authors", 3, func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
		return nil, nil, nil, &sectionError{edge: "Papers→Authors"}
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.InstallAdjacencyDeferred("Papers→Authors_rev", 3, func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
		return []tgm.NodeID{3, 4}, []int32{0, 2, 3}, []tgm.NodeID{0, 1, 2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	g.Freeze()

	s := New(schema, g)
	ctx := context.Background()
	wantSectionError := func(what string, err error) {
		t.Helper()
		var se *sectionError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want the loader's *sectionError", what, err)
		}
	}
	// Opening prepares without touching adjacency; the table's shape and
	// size are served.
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	meta, err := s.WindowCtx(ctx, 0, 0)
	if err != nil || meta.Total() != 3 {
		t.Fatalf("metadata window: total %v, err %v", meta, err)
	}
	// Rendering the neighbor column, and sorting by its count, fail
	// with the typed error.
	_, err = s.WindowCtx(ctx, 0, 10)
	wantSectionError("window", err)
	if err := s.SortBy(etable.SortSpec{Column: "Authors", Desc: true}); err != nil {
		t.Fatalf("recording the sort: %v", err)
	}
	_, err = s.WindowCtx(ctx, 0, 10)
	wantSectionError("sorted window", err)

	// The session is intact: the failed reads changed no state, and a
	// table over the healthy reverse adjacency renders with its counts.
	if entries, cursor := s.Entries(); len(entries) != 2 || cursor != 1 {
		t.Fatalf("history after failed reads: %d entries, cursor %d", len(entries), cursor)
	}
	if err := s.Open("Authors"); err != nil {
		t.Fatal(err)
	}
	if err := s.SortBy(etable.SortSpec{Column: "Papers", Desc: true}); err != nil {
		t.Fatal(err)
	}
	res, err := s.WindowCtx(ctx, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	ci := res.ColumnIndex("Papers")
	if len(res.Rows) != 2 || res.Rows[0].Cells[ci].Count() != 2 || res.Rows[1].Cells[ci].Count() != 1 {
		t.Fatalf("healthy table: %+v", res.Rows)
	}
}
