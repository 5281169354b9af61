package etable

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tgm"
	"repro/internal/translate"
	"repro/internal/value"
)

// scatteredFixture builds the graph dense ID indexing could get wrong:
// a filler type F is added first, then X's run, then Y's, so every
// type's run starts at a distinct non-zero ID and an index read at id
// instead of id − lo lands on another row or outside the column. X–Y
// edges are random and many-to-many. (The type with no nodes at all is
// graphrel's TestJoinScatteredIDs: a table over one cannot be rendered
// from an AddNode-built graph, which has no column to label it with.)
func scatteredFixture(t *testing.T, rng *rand.Rand) (*tgm.SchemaGraph, *tgm.InstanceGraph) {
	t.Helper()
	s, g := xyGraph(t, "F", "X", "Y")
	ids := map[string][]tgm.NodeID{}
	for _, run := range []struct {
		name string
		n    int
	}{{"F", 1 + rng.Intn(3)}, {"X", 5 + rng.Intn(20)}, {"Y", 5 + rng.Intn(20)}} {
		for i := 0; i < run.n; i++ {
			ids[run.name] = append(ids[run.name], addID(t, g, run.name, i))
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
	return s, g
}

// TestPrepareScatteredIDs is the one-Prepare-kernel equivalence where
// dense indexing could go wrong (ID runs starting at distinct non-zero
// IDs, a repeated type, a selection leaving gaps): MatchOpts holds the
// oracle's projections and tuple count, and PrepareOpts and a cache's
// Prepare both render the oracle's table cell for cell. Run under -race by scripts/check.sh.
func TestPrepareScatteredIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(20261004))
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
			naive, err := MatchNaive(g, p)
			if err != nil {
				t.Fatal(err)
			}
			matched, err := MatchOpts(g, p, ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertReducedMatches(t, label, p, matched, naive)
			pr, err := PrepareOpts(g, p, matched, ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := pr.Window(0, -1)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, label+"/PrepareOpts", got, want)
			got, err = executeCached(NewCache(DefaultCacheEntries), g, p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameResults(t, label+"/cache", got, want)
		}
	}
}

// TestPresentationRetainsResultSizedState: what a presentation keeps
// is its reduced sets and a rank directory over the rows' set — a pivot
// that narrows 5,000 papers to a handful of rows holds a few set words
// and no array anywhere near the size of a node type, and nothing per
// participating cell until a sort by the column builds its count
// vector, one entry per row — so a server full of sessions does not
// inherit a per-type array per column.
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
	matched, err := MatchOpts(tr.Instance, p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PrepareOpts(tr.Instance, p, matched, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, typeSize := pr.NumRows(), len(tr.Instance.NodesOfType(pr.primType.Name))
	if rows == 0 || rows > 40 || typeSize < 1000 {
		t.Fatalf("fixture drifted: %d rows of %d %s", rows, typeSize, pr.primType.Name)
	}
	// One rank per word of the rows' set: at most one per 64 IDs of the
	// type, never one per node.
	if words := int(pr.rows.SizeBytes() / 8); len(pr.ranks) != words || words > typeSize/64+1 {
		t.Errorf("rank directory holds %d entries over a %d-word set of %d rows (type of %d)", len(pr.ranks), words, rows, typeSize)
	}
	if len(pr.parts) != 1 {
		t.Fatalf("%d participating columns, want 1", len(pr.parts))
	}
	if pr.parts[0].counts.v != nil {
		t.Fatal("the prepare built a count vector")
	}
	v, err := pr.SortedView(SortSpec{Column: pr.columns[pr.parts[0].col].Name})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(pr.parts[0].counts.v); n != rows || len(v.perm) != rows {
		t.Errorf("a count sort kept %d counts and %d row IDs, want one per row (%d)", n, len(v.perm), rows)
	}
}

// TestMatchPrepareAllocGuard catches a slide back to hashing or
// batching: Figure 7's match and prepare allocate well under a hundred
// arrays and headers (79 measured for the reduced sets and the prepare
// over them; 123 while m(Q) was also walked into tuples, and the
// streamed join's batches paid 230 and the hash-map kernels 866 on the
// same query and fixture, most of them map buckets and per-node row
// lists). The ceiling, set when the count was 123, stays below what the
// batches cost.
func TestMatchPrepareAllocGuard(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	allocs := testing.AllocsPerRun(20, func() {
		matched, err := MatchOpts(tr.Instance, p, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PrepareOpts(tr.Instance, p, matched, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 150
	if allocs > ceiling {
		t.Errorf("match + prepare allocate %.0f objects, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkPrepareFirstWindow times what a pivot's response costs the
// engine once its match is resident: the prepare of the cached reduced
// sets plus the first 50-row window, materialized. depth1 pivots Papers
// to Authors (a Papers column one hop from the rows); depth2 continues
// through Authors to Institutions (Authors one hop away, Papers two).
func BenchmarkPrepareFirstWindow(b *testing.B) {
	db, err := dataset.Generate(dataset.Config{Papers: 6000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		p    *Pattern
	}{
		{"depth1", buildPattern(b, tr, "Papers", opAdd(tr, "Paper_Authors"))},
		{"depth2", buildPattern(b, tr, "Papers", opAdd(tr, "Paper_Authors"), opAdd(tr, "Authors→Institutions"))},
	} {
		b.Run(arm.name, func(b *testing.B) {
			ex := NewCache(DefaultCacheEntries)
			if _, err := ex.Prepare(context.Background(), tr.Instance, arm.p); err != nil {
				b.Fatal(err)
			}
			misses := ex.Misses()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr, err := ex.Prepare(context.Background(), tr.Instance, arm.p)
				if err != nil {
					b.Fatal(err)
				}
				if res, err := pr.Window(0, 50); err != nil || res.NumRows() != 50 {
					b.Fatalf("first window: %v", err)
				}
			}
			if ex.Misses() != misses {
				b.Fatal("the prepare missed the cache")
			}
		})
	}
}

// xyGraph returns an empty graph over the named entity types, each
// with one integer attribute, id, that is also its label, and the
// many-to-many edge type X→Y with its reverse.
func xyGraph(t testing.TB, types ...string) (*tgm.SchemaGraph, *tgm.InstanceGraph) {
	t.Helper()
	s := tgm.NewSchemaGraph()
	for _, name := range types {
		if _, err := s.AddNodeType(tgm.NodeType{Name: name, Kind: tgm.NodeEntity, Label: "id",
			Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddBidirectional(tgm.EdgeType{Name: "X→Y", Source: "X", Target: "Y", Kind: tgm.EdgeManyToMany}); err != nil {
		t.Fatal(err)
	}
	return s, tgm.NewInstanceGraph(s)
}

// addID adds a node of typ whose id is i and returns its ID.
func addID(t testing.TB, g *tgm.InstanceGraph, typ string, i int) tgm.NodeID {
	t.Helper()
	id, err := g.AddNode(typ, []value.V{value.Int(int64(i))})
	if err != nil {
		t.Fatal(err)
	}
	return id
}
