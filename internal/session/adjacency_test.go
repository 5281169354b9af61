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

// brokenAdjacencyGraph builds three papers (nodes 0–2), two authors
// (3, 4) and one venue (5) over lazily installed adjacency:
// Papers→Authors fails to load; its reverse loads fine (author 3 wrote
// papers 0 and 1, author 4 paper 2) unless reverseBroken fails it too;
// Papers→Venues is healthy in both directions.
func brokenAdjacencyGraph(t *testing.T, reverseBroken bool) (*tgm.SchemaGraph, *tgm.InstanceGraph) {
	t.Helper()
	schema := tgm.NewSchemaGraph()
	for _, nt := range []tgm.NodeType{
		{Name: "Papers", Kind: tgm.NodeEntity, Label: "title", Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}, {Name: "title", Type: value.KindString}}},
		{Name: "Authors", Kind: tgm.NodeEntity, Label: "name", Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}, {Name: "name", Type: value.KindString}}},
		{Name: "Venues", Kind: tgm.NodeEntity, Label: "name", Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}, {Name: "name", Type: value.KindString}}},
	} {
		if _, err := schema.AddNodeType(nt); err != nil {
			t.Fatal(err)
		}
	}
	for _, target := range []string{"Authors", "Venues"} {
		if _, err := schema.AddBidirectional(tgm.EdgeType{Name: "Papers→" + target, Source: "Papers", Target: target, Kind: tgm.EdgeManyToMany}); err != nil {
			t.Fatal(err)
		}
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
	if _, err := g.AddNode("Venues", []value.V{value.Int(0), value.Str("venue 0")}); err != nil {
		t.Fatal(err)
	}
	install := func(edge string, srcs []tgm.NodeID, offs []int32, targets []tgm.NodeID) {
		t.Helper()
		if err := g.InstallAdjacencyDeferred(edge, 3, func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
			if srcs == nil {
				return nil, nil, nil, &sectionError{edge: edge}
			}
			return srcs, offs, targets, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	install("Papers→Authors", nil, nil, nil)
	if reverseBroken {
		install("Papers→Authors_rev", nil, nil, nil)
	} else {
		install("Papers→Authors_rev", []tgm.NodeID{3, 4}, []int32{0, 2, 3}, []tgm.NodeID{0, 1, 2})
	}
	install("Papers→Venues", []tgm.NodeID{0, 1, 2}, []int32{0, 1, 2, 3}, []tgm.NodeID{5, 5, 5})
	install("Papers→Venues_rev", []tgm.NodeID{5}, []int32{0, 3}, []tgm.NodeID{0, 1, 2})
	g.Freeze()
	return schema, g
}

// wantSectionError asserts err carries the loader's typed error.
func wantSectionError(t *testing.T, what string, err error) {
	t.Helper()
	var se *sectionError
	if !errors.As(err, &se) {
		t.Fatalf("%s: err = %v, want the loader's *sectionError", what, err)
	}
}

// TestFailedAdjacencyLoadIsAnErrorNotEmptyCells: over a lazily
// installed edge type whose loader fails, sorting by the neighbor
// column and rendering it used to read the failure as "no neighbours" —
// zero counts, empty cells, 200 OK. Both now return the loader's typed
// error, and the session keeps serving everything that does not touch
// the broken adjacency.
func TestFailedAdjacencyLoadIsAnErrorNotEmptyCells(t *testing.T) {
	schema, g := brokenAdjacencyGraph(t, false)
	s := New(schema, g)
	ctx := context.Background()
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
	wantSectionError(t, "window", err)
	if err := s.SortBy(etable.SortSpec{Column: "Authors", Desc: true}); err != nil {
		t.Fatalf("recording the sort: %v", err)
	}
	_, err = s.WindowCtx(ctx, 0, 10)
	wantSectionError(t, "sorted window", err)

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

// TestJoinOverFailedAdjacencyIsAnErrorNotAnEmptyTable: a pivot or a
// neighbor filter joins through the edge type's adjacency (in whichever
// direction the plan picks, so both are broken here); over one whose
// loader fails, the join used to probe "no neighbours" for every row
// and return an empty table with a nil error — and that empty match went
// into the cache every session shares. The join now fails with the
// loader's typed error, nothing is cached under the match's key, and
// joins over healthy adjacency keep serving.
func TestJoinOverFailedAdjacencyIsAnErrorNotAnEmptyTable(t *testing.T) {
	schema, g := brokenAdjacencyGraph(t, true)
	cache := etable.NewCache(16)
	ctx := context.Background()
	for name, op := range map[string]func(*Session) error{
		"pivot":           func(s *Session) error { return s.Pivot("Authors") },
		"filter_neighbor": func(s *Session) error { return s.FilterByNeighbor("Authors", "name like '%author%'") },
	} {
		// Two sessions over one cache: were the first one's failure cached
		// as an empty relation, the second would be served it. What a
		// failed join does leave behind is its selected base relations,
		// so the second attempt finds everything it may find and adds
		// nothing.
		var cached int
		for round := 0; round < 2; round++ {
			s := NewShared(schema, g, cache)
			if err := s.Open("Papers"); err != nil {
				t.Fatal(err)
			}
			if err := op(s); err != nil {
				t.Fatalf("%s: recording the op: %v", name, err)
			}
			// Even the metadata window needs the match.
			_, err := s.WindowCtx(ctx, 0, 0)
			wantSectionError(t, fmt.Sprintf("%s, session %d", name, round), err)
			if round == 0 {
				cached = cache.Len()
			} else if cache.Len() != cached {
				t.Fatalf("%s: cache grew from %d to %d relations on the repeated failure", name, cached, cache.Len())
			}
		}
	}

	// A join over healthy adjacency serves from the same cache.
	s := NewShared(schema, g, cache)
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pivot("Venues"); err != nil {
		t.Fatal(err)
	}
	res, err := s.WindowCtx(ctx, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	ci := res.ColumnIndex("Papers")
	if len(res.Rows) != 1 || ci < 0 || res.Rows[0].Cells[ci].Count() != 3 {
		t.Fatalf("healthy pivot: %+v", res.Rows)
	}
}
