package etable

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/tgm"
	"repro/internal/value"
)

// sortFuzzGraph builds a graph whose "Rows" type has one column per key
// class of the sort kernel — dense and sparse integers, booleans,
// floats, strings, a column with NULLs and a column of mixed kinds, all
// with heavy duplicates — and two neighbor edge types: every row has a
// Tag (contiguous CSR sources once snapshot-loaded: the O(1) index),
// only some rows have Marks (gaps: binary search). NaN is deliberately
// absent: value.Compare calls it equal to everything, so no order —
// stable or otherwise — is defined for it and the kernel promises only
// a permutation (see sort.go).
func sortFuzzGraph(t *testing.T, rng *rand.Rand, rows int) *tgm.InstanceGraph {
	t.Helper()
	schema := tgm.NewSchemaGraph()
	nt := func(name string, attrs ...tgm.Attr) {
		if _, err := schema.AddNodeType(tgm.NodeType{Name: name, Kind: tgm.NodeEntity, Label: attrs[0].Name, Attrs: attrs}); err != nil {
			t.Fatal(err)
		}
	}
	nt("Rows",
		tgm.Attr{Name: "id", Type: value.KindInt}, tgm.Attr{Name: "dense", Type: value.KindInt},
		tgm.Attr{Name: "sparse", Type: value.KindInt}, tgm.Attr{Name: "flag", Type: value.KindBool},
		tgm.Attr{Name: "score", Type: value.KindFloat}, tgm.Attr{Name: "name", Type: value.KindString},
		tgm.Attr{Name: "holes", Type: value.KindInt}, tgm.Attr{Name: "mixed", Type: value.KindString})
	nt("Tags", tgm.Attr{Name: "tag", Type: value.KindString})
	nt("Marks", tgm.Attr{Name: "mark", Type: value.KindString})
	for _, et := range []tgm.EdgeType{
		{Name: "Rows→Tags", Source: "Rows", Target: "Tags", Kind: tgm.EdgeManyToMany},
		{Name: "Rows→Marks", Source: "Rows", Target: "Marks", Kind: tgm.EdgeManyToMany},
	} {
		if _, err := schema.AddBidirectional(et); err != nil {
			t.Fatal(err)
		}
	}

	sparse := []int64{math.MinInt64, math.MaxInt64, -1 << 40, 1 << 40, 0, 7}
	for len(sparse) < 24 {
		sparse = append(sparse, rng.Int63()-rng.Int63())
	}
	scores := []float64{math.Inf(-1), -2.5, -0.0, 0, 1e-9, 1, 1.5, 3, 1e18, math.Inf(1)}
	names := []string{"", "a", "aa", "ab", "b", "Zoë", "zoë", "data", "database", "databases", "日本"}
	g := tgm.NewInstanceGraph(schema)
	add := func(typ string, attrs ...value.V) tgm.NodeID {
		id, err := g.AddNode(typ, attrs)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mixed := func() value.V {
		switch rng.Intn(6) {
		case 0:
			return value.Null
		case 1:
			return value.Bool(rng.Intn(2) == 0)
		case 2:
			return value.Int(int64(rng.Intn(4)))
		case 3:
			return value.Float(scores[rng.Intn(len(scores))])
		default:
			return value.Str(names[rng.Intn(len(names))])
		}
	}
	rowIDs := make([]tgm.NodeID, rows)
	for i := range rowIDs {
		holes := value.Null
		if rng.Intn(3) > 0 {
			holes = value.Int(int64(rng.Intn(5)))
		}
		rowIDs[i] = add("Rows", value.Int(int64(i)), value.Int(int64(1990+rng.Intn(12))),
			value.Int(sparse[rng.Intn(len(sparse))]), value.Bool(rng.Intn(2) == 0),
			value.Float(scores[rng.Intn(len(scores))]), value.Str(names[rng.Intn(len(names))]),
			holes, mixed())
	}
	var tags, marks []tgm.NodeID
	for i := 0; i < 9; i++ {
		tags = append(tags, add("Tags", value.Str(fmt.Sprintf("tag%d", i))))
		marks = append(marks, add("Marks", value.Str(fmt.Sprintf("mark%d", i))))
	}
	for _, id := range rowIDs {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			if err := g.AddEdge("Rows→Tags", id, tags[rng.Intn(len(tags))]); err != nil {
				t.Fatal(err)
			}
		}
		for n := rng.Intn(3); n > 0; n-- {
			if err := g.AddEdge("Rows→Marks", id, marks[rng.Intn(len(marks))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Freeze()
	return g
}

// sortSpecsOf lists every sort the presentation admits: each base
// attribute and each entity-reference column, both directions.
func sortSpecsOf(pr *Presentation) []SortSpec {
	var specs []SortSpec
	for _, c := range pr.Columns() {
		for _, desc := range []bool{false, true} {
			if c.Kind == ColBase {
				specs = append(specs, SortSpec{Attr: c.Attr, Desc: desc})
			} else {
				specs = append(specs, SortSpec{Column: c.Name, Desc: desc})
			}
		}
	}
	return specs
}

// nodesOf is a rendered table's row order.
func nodesOf(res *Result) []tgm.NodeID {
	ids := make([]tgm.NodeID, len(res.Rows))
	for i := range res.Rows {
		ids[i] = res.Rows[i].Node
	}
	return ids
}

// assertSortsLikeOracle checks, for every sort spec and for pairs of
// sorts applied back to back, that the kernel's row order equals the
// oracle's: the fully rendered table under sort.SliceStable and
// value.Compare. The second sort of a pair is what tells a position
// tie-break from an ID tie-break — after the first sort the two differ.
func assertSortsLikeOracle(t *testing.T, label string, rng *rand.Rand, build func() *Presentation) {
	t.Helper()
	specs := sortSpecsOf(build())
	for _, first := range specs {
		pr := build()
		want, err := pr.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		second := specs[rng.Intn(len(specs))]
		for step, spec := range []SortSpec{first, second} {
			if err := want.Sort(spec); err != nil {
				t.Fatal(err)
			}
			if err := pr.Sort(spec); err != nil {
				t.Fatalf("%s: sort %+v: %v", label, spec, err)
			}
			if !reflect.DeepEqual(pr.rowIDs, nodesOf(want)) {
				t.Fatalf("%s: sort %+v then %+v, step %d: kernel order differs from sort.SliceStable + value.Compare",
					label, first, second, step)
			}
		}
		// SortedView is the same kernel leaving its receiver alone.
		before := append([]tgm.NodeID(nil), pr.rowIDs...)
		v, err := pr.SortedView(first)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Sort(first); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.rowIDs, nodesOf(want)) || !reflect.DeepEqual(pr.rowIDs, before) {
			t.Fatalf("%s: SortedView(%+v) differs from Sort, or reordered its receiver", label, first)
		}
	}
}

// TestSortKernelMatchesStableSortFuzz is the sort equivalence fuzz:
// the typed-key kernel (counting and comparison arms, every key class,
// Asc and Desc, sorts stacked on sorts) yields exactly the permutation
// of a stable sort by value.Compare — on the graph as built (map
// adjacency), eagerly loaded from a snapshot (CSR) and lazily loaded
// (deferred CSR, out-of-core columns), for neighbor counts and for
// participating-column counts over heap and spilled groupings.
func TestSortKernelMatchesStableSortFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	built := sortFuzzGraph(t, rng, 700)
	path := filepath.Join(t.TempDir(), "sortfuzz.etsnap")
	if _, err := snapshot.SaveFile(path, built); err != nil {
		t.Fatal(err)
	}
	eager, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := snapshot.LazyLoad(path, snapshot.LazyOptions{PoolSections: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()

	for _, form := range []struct {
		name string
		g    *tgm.InstanceGraph
	}{{"built", built}, {"eager", eager.Graph}, {"lazy", lazy.Graph}} {
		g := form.g
		// Rows alone: base attributes plus the two neighbor columns.
		open, err := Initiate(g.Schema(), "Rows")
		if err != nil {
			t.Fatal(err)
		}
		assertSortsLikeOracle(t, form.name+"/open", rng, func() *Presentation {
			matched, err := Match(g, open)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := Prepare(g, open, matched)
			if err != nil {
				t.Fatal(err)
			}
			return pr
		})

		// Rows joined to Tags, pivoted back: Tags is a participating
		// column, counted from the prepared grouping — on the heap, and
		// from a spilled directory.
		joined, err := Add(g.Schema(), open, "Rows→Tags")
		if err != nil {
			t.Fatal(err)
		}
		if joined, err = Shift(joined, "Rows"); err != nil {
			t.Fatal(err)
		}
		assertSortsLikeOracle(t, form.name+"/joined", rng, func() *Presentation {
			matched, err := Match(g, joined)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := Prepare(g, joined, matched)
			if err != nil {
				t.Fatal(err)
			}
			return pr
		})
		withSmallStreamBatches(t, 64)
		assertSortsLikeOracle(t, form.name+"/spilled", rng, func() *Presentation {
			pol, metrics := testSpillPolicy(t, 32)
			opt := ExecOptions{MaxRows: 100, Spill: pol}
			src, err := MatchSource(g, joined, opt)
			if err != nil {
				t.Fatal(err)
			}
			pr, _, err := PrepareFromSource(g, joined, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			if metrics.Snapshot().Spills == 0 {
				t.Fatal("prepare did not spill")
			}
			t.Cleanup(func() { pr.Close() })
			return pr
		})
	}
}

// TestSortIntsBothArms drives the integer kernel directly on either
// side of the counting-sort condition — spans just under and just over
// denseSpan·n, the full int64 range (where hi-lo overflows), tiny
// inputs — against a stable reference sort.
func TestSortIntsBothArms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(name string, keys []int64) {
		t.Helper()
		ids := make([]tgm.NodeID, len(keys))
		for i := range ids {
			ids[i] = tgm.NodeID(rng.Int31())
		}
		for _, desc := range []bool{false, true} {
			want := append([]tgm.NodeID(nil), ids...)
			order := make([]int, len(keys))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool {
				if desc {
					return keys[order[a]] > keys[order[b]]
				}
				return keys[order[a]] < keys[order[b]]
			})
			for i, o := range order {
				want[i] = ids[o]
			}
			got := sortInts(ids, keys, desc)
			if len(keys) == 0 {
				if len(got) != 0 {
					t.Fatalf("%s: %d ids from no keys", name, len(got))
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s desc=%v: order differs from the stable reference", name, desc)
			}
		}
	}
	spread := func(n int, span int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = -span/2 + rng.Int63n(span)
		}
		keys[0], keys[n-1] = -span/2, -span/2+span-1 // pin the range
		return keys
	}
	check("empty", nil)
	check("one", []int64{42})
	check("two equal", []int64{3, 3})
	check("all equal", make([]int64, 100))
	for _, n := range []int{2, 50, 1000} {
		check(fmt.Sprintf("n=%d dense", n), spread(n, int64(n)))
		check(fmt.Sprintf("n=%d at the bound", n), spread(n, int64(denseSpan*n)))
		check(fmt.Sprintf("n=%d past the bound", n), spread(n, int64(denseSpan*n)+1))
		check(fmt.Sprintf("n=%d sparse", n), spread(n, 1<<50))
	}
	check("full range", []int64{math.MaxInt64, 0, math.MinInt64, -1, math.MaxInt64, math.MinInt64})
}
