package etable

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/graphrel"
	"repro/internal/tgm"
	"repro/internal/translate"
	"repro/internal/value"
)

// scatteredFixture builds the graph dense ID indexing could get wrong:
// X and Y nodes are added alternately, so neither type's IDs are
// contiguous and each type's span covers the other's nodes. X–Y edges
// are random and many-to-many. (The type with no nodes at all is
// graphrel's TestJoinScatteredIDs: a table over one cannot be rendered
// from an AddNode-built graph, which has no column to label it with.)
func scatteredFixture(t *testing.T, rng *rand.Rand) (*tgm.SchemaGraph, *tgm.InstanceGraph) {
	t.Helper()
	s := tgm.NewSchemaGraph()
	for _, name := range []string{"X", "Y"} {
		if _, err := s.AddNodeType(tgm.NodeType{Name: name, Kind: tgm.NodeEntity, Label: "id",
			Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddBidirectional(tgm.EdgeType{Name: "X→Y", Source: "X", Target: "Y", Kind: tgm.EdgeManyToMany}); err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(s)
	ids := map[string][]tgm.NodeID{}
	for i, n := 0, 10+rng.Intn(30); i < n; i++ {
		name := []string{"X", "Y"}[i%2]
		for run := 1 + rng.Intn(2); run > 0; run-- {
			id, err := g.AddNode(name, []value.V{value.Int(int64(len(ids[name])))})
			if err != nil {
				t.Fatal(err)
			}
			ids[name] = append(ids[name], id)
		}
	}
	for _, x := range ids["X"] {
		for _, y := range ids["Y"] {
			if rng.Intn(3) == 0 {
				if err := g.AddEdge("X→Y", x, y); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g.Freeze()
	for _, name := range []string{"X", "Y"} {
		if _, _, contiguous := g.TypeIDRange(name); contiguous {
			t.Fatalf("type %s came out contiguous: %v", name, ids[name])
		}
	}
	return s, g
}

// assertCellsMatchRelation checks a rendered table against its matched
// relation by brute force, sharing nothing with the grouping kernels:
// the rows are the distinct primary nodes ascending, and every
// participating cell holds exactly the distinct nodes co-occurring with
// its row, ascending.
func assertCellsMatchRelation(t *testing.T, label string, res *Result, p *Pattern, matched *graphrel.Relation) {
	t.Helper()
	prim := matched.ColumnNamed(p.Primary)
	rows := slices.Clone(prim)
	slices.Sort(rows)
	rows = slices.Compact(rows)
	if len(res.Rows) != len(rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(res.Rows), len(rows))
	}
	for ci, c := range res.Columns {
		if c.Kind != ColParticipating {
			continue
		}
		vcol := matched.ColumnNamed(c.NodeKey)
		for ri, row := range res.Rows {
			if row.Node != rows[ri] {
				t.Fatalf("%s: row %d is node %d, want %d", label, ri, row.Node, rows[ri])
			}
			var want []tgm.NodeID
			for i, id := range prim {
				if id == row.Node {
					want = append(want, vcol[i])
				}
			}
			slices.Sort(want)
			want = slices.Compact(want)
			got := make([]tgm.NodeID, len(row.Cells[ci].Refs))
			for i, ref := range row.Cells[ci].Refs {
				got[i] = ref.ID
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: row %d column %q = %v, want %v", label, ri, c.Name, got, want)
			}
		}
	}
}

// TestPrepareScatteredIDs is the one-Prepare-kernel equivalence where
// dense indexing could go wrong (no type contiguous, a repeated type, a
// selection leaving gaps): PrepareOpts, PrepareFromSource at batch 7 and
// the default under budgets 1 and 4, and a spill demotion tripping
// after the first tuple, mid-stream and one short of the end all render
// the oracle's table cell for cell. Run under -race by scripts/check.sh.
func TestPrepareScatteredIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(20261004))
	pool := exec.NewPool(4)
	for trial := 0; trial < 8; trial++ {
		schema, g := scatteredFixture(t, rng)
		build := func(steps ...func(*Pattern) (*Pattern, error)) *Pattern {
			p, err := Initiate(schema, "X")
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range steps {
				if p, err = s(p); err != nil {
					t.Fatal(err)
				}
			}
			return p
		}
		add := func(edge string) func(*Pattern) (*Pattern, error) {
			return func(p *Pattern) (*Pattern, error) { return Add(schema, p, edge) }
		}
		for name, p := range map[string]*Pattern{
			"X*Y@Y":       build(add("X→Y")),
			"X*Y@X":       build(add("X→Y"), opShift("X")),
			"X*Y*X#2@X#2": build(add("X→Y"), add("X→Y_rev")),
			"X*Y*X#2@Y":   build(add("X→Y"), add("X→Y_rev"), opShift("Y")),
			"X*Y*X#2@X":   build(opSelect("id % 2 = 0"), add("X→Y"), add("X→Y_rev"), opShift("X")),
		} {
			label := fmt.Sprintf("trial=%d %s", trial, name)
			_, want := oracleTable(t, g, p)
			matched, err := MatchOpts(g, p, ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertCellsMatchRelation(t, label, want, p, matched)
			render := func(sub string, pr *Presentation) {
				t.Helper()
				got, err := pr.Window(0, -1)
				if err != nil {
					t.Fatalf("%s/%s: %v", label, sub, err)
				}
				assertSameResults(t, label+"/"+sub, got, want)
			}
			pr, err := PrepareOpts(g, p, matched, ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			render("PrepareOpts", pr)

			for _, batch := range []int{7, 0} {
				withSmallStreamBatches(t, batch)
				for _, budget := range []int{1, 4} {
					opt := ExecOptions{Ctx: context.Background(), Pool: pool, Parallelism: budget}
					src, err := MatchSource(g, p, opt)
					if err != nil {
						t.Fatal(err)
					}
					pr, rel, err := PrepareFromSource(g, p, src, opt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sub := fmt.Sprintf("PrepareFromSource batch=%d budget=%d", batch, budget)
					assertSameRelations(t, label+"/"+sub, rel, matched)
					render(sub, pr)
				}
			}

			// Demotion: the cap trips mid-stream and the retained batches
			// replay through the external folds.
			n := matched.Len()
			withSmallStreamBatches(t, 7)
			for _, maxRows := range []int{1, n / 2, n - 1} {
				if maxRows < 1 {
					continue
				}
				pol, metrics := testSpillPolicy(t, 5)
				opt := ExecOptions{MaxRows: maxRows, Spill: pol}
				src, err := MatchSource(g, p, opt)
				if err != nil {
					t.Fatal(err)
				}
				pr, rel, err := PrepareFromSource(g, p, src, opt)
				if err != nil {
					t.Fatalf("%s MaxRows=%d: %v", label, maxRows, err)
				}
				if rel != nil || metrics.Snapshot().Spills == 0 {
					t.Fatalf("%s MaxRows=%d of %d: prepare did not demote (relation %v, %+v)",
						label, maxRows, n, rel != nil, metrics.Snapshot())
				}
				render(fmt.Sprintf("demoted at MaxRows=%d", maxRows), pr)
				if err := pr.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestPresentationRetainsResultSizedState: what a heap presentation
// keeps is O(rows + deduplicated pairs) — a pivot that narrows 5,000
// papers to a handful of rows holds one offset per row and no array
// anywhere near the size of a node type, so a server full of sessions
// does not inherit a per-type array per column.
func TestPresentationRetainsResultSizedState(t *testing.T) {
	db, err := dataset.Generate(dataset.Config{Papers: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := buildPattern(t, tr, "Papers", opSelect("id <= 4"), opAdd(tr, "Paper_Authors"))
	matched, err := Match(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(tr.Instance, p, matched)
	if err != nil {
		t.Fatal(err)
	}
	rows, typeSize := pr.NumRows(), len(tr.Instance.NodesOfType(pr.primType.Name))
	if rows == 0 || rows > 40 || typeSize < 1000 {
		t.Fatalf("fixture drifted: %d rows of %d %s", rows, typeSize, pr.primType.Name)
	}
	if len(pr.parts) != 1 {
		t.Fatalf("%d participating columns, want 1", len(pr.parts))
	}
	groups, ok := pr.parts[0].src.(*graphrel.Groups)
	if !ok {
		t.Fatalf("heap prepare holds a %T", pr.parts[0].src)
	}
	fields := reflect.ValueOf(groups).Elem()
	for i := 0; i < fields.NumField(); i++ {
		name, f := fields.Type().Field(i).Name, fields.Field(i)
		if f.Kind() != reflect.Slice {
			t.Fatalf("Groups.%s is a %s: every retained field should be a result-sized slice", name, f.Kind())
		}
		if f.Cap() >= typeSize {
			t.Errorf("Groups.%s holds %d slots for %d rows: sized by the node type (%d)", name, f.Cap(), rows, typeSize)
		}
	}
	if n := fields.FieldByName("offs").Len(); n != rows+1 {
		t.Errorf("len(offs) = %d, want rows+1 = %d", n, rows+1)
	}
	if n := fields.FieldByName("vals").Len(); n != matched.Len() {
		t.Errorf("len(vals) = %d, want the %d distinct (author, paper) pairs", n, matched.Len())
	}
	if fields.FieldByName("keys").Pointer() != reflect.ValueOf(pr.rowIDs).Pointer() {
		t.Error("the grouping copied the row IDs instead of sharing them")
	}
}

// TestMatchPrepareAllocGuard catches a slide back to hashing: Figure
// 7's match and prepare allocate about a hundred arrays and headers
// (79 + 38 measured; the hash-map kernels paid 866 on the same query and
// fixture, most of them map buckets and per-node row lists). The
// ceiling is twice the measured count.
func TestMatchPrepareAllocGuard(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	allocs := testing.AllocsPerRun(20, func() {
		matched, err := Match(tr.Instance, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Prepare(tr.Instance, p, matched); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 240
	if allocs > ceiling {
		t.Errorf("match + prepare allocate %.0f objects, ceiling %d", allocs, ceiling)
	}
}
