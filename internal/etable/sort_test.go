package etable

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/tgm"
	"repro/internal/value"
)

// sortFuzzGraph builds a graph whose "Rows" type has one column per key
// class of the sort kernel — dense and sparse integers, booleans,
// floats, strings, a column with NULLs and a column of mixed kinds, all
// with heavy duplicates — and two neighbor edge types: every row has a
// Tag (gap-free CSR sources once snapshot-loaded), only some rows have
// Marks (gapped sources). A filler "Pad" type is added first, so every
// type's ID run starts at a distinct non-zero ID and a rank or label
// read at id instead of id − lo is caught.
// NaN is deliberately absent: value.Compare calls it equal to every
// number, so no stable sort by it is defined; TestSortNaNKeepsOrder
// pins what the kernel does with it (tgm/rank.go).
func sortFuzzGraph(t *testing.T, rng *rand.Rand, rows int) *tgm.InstanceGraph {
	t.Helper()
	schema := tgm.NewSchemaGraph()
	nt := func(name string, attrs ...tgm.Attr) {
		if _, err := schema.AddNodeType(tgm.NodeType{Name: name, Kind: tgm.NodeEntity, Label: attrs[0].Name, Attrs: attrs}); err != nil {
			t.Fatal(err)
		}
	}
	rowAttrs := []tgm.Attr{
		{Name: "id", Type: value.KindInt}, {Name: "dense", Type: value.KindInt},
		{Name: "sparse", Type: value.KindInt}, {Name: "flag", Type: value.KindBool},
		{Name: "score", Type: value.KindFloat}, {Name: "name", Type: value.KindString},
		{Name: "holes", Type: value.KindInt}, {Name: "mixed", Type: value.KindString}}
	nt("Pad", tgm.Attr{Name: "pad", Type: value.KindInt})
	nt("Rows", rowAttrs...)
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
	addRow := func(typ string, i int) tgm.NodeID {
		holes := value.Null
		if rng.Intn(3) > 0 {
			holes = value.Int(int64(rng.Intn(5)))
		}
		return add(typ, value.Int(int64(i)), value.Int(int64(1990+rng.Intn(12))),
			value.Int(sparse[rng.Intn(len(sparse))]), value.Bool(rng.Intn(2) == 0),
			value.Float(scores[rng.Intn(len(scores))]), value.Str(names[rng.Intn(len(names))]),
			holes, mixed())
	}
	for i := rng.Intn(3); i >= 0; i-- {
		add("Pad", value.Int(int64(i)))
	}
	rowIDs := make([]tgm.NodeID, rows)
	for i := range rowIDs {
		rowIDs[i] = addRow("Rows", i)
	}
	var tags, marks []tgm.NodeID
	for i := 0; i < 9; i++ {
		tags = append(tags, add("Tags", value.Str(fmt.Sprintf("tag%d", i))))
	}
	for i := 0; i < 9; i++ {
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
// sorts stacked as a SortedView of a SortedView, that the kernel's row
// order equals the oracle's: the fully rendered table under
// sort.SliceStable and value.Compare. The second sort of a pair is what
// tells a position tie-break from an ID tie-break — after the first
// sort the two differ. Every view leaves its receiver's order alone.
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
			before := append([]tgm.NodeID(nil), pr.order()...)
			v, err := pr.SortedView(spec)
			if err != nil {
				t.Fatalf("%s: sort %+v: %v", label, spec, err)
			}
			if !reflect.DeepEqual(v.order(), nodesOf(want)) {
				t.Fatalf("%s: sort %+v then %+v, step %d: kernel order differs from sort.SliceStable + value.Compare",
					label, first, second, step)
			}
			if !reflect.DeepEqual(pr.order(), before) {
				t.Fatalf("%s: SortedView(%+v) reordered its receiver", label, spec)
			}
			pr = v
		}
	}
}

// TestSortKernelMatchesStableSortFuzz is the sort equivalence fuzz:
// the integer kernel over counts and attribute ranks (counting and
// comparison arms, every key class, Asc and Desc, sorts stacked on
// sorts) yields exactly the permutation of a stable sort by
// value.Compare — on the graph as built (map adjacency), eagerly loaded
// from a snapshot (CSR) and lazily loaded (deferred CSR, out-of-core
// columns), for neighbor counts and for participating-column counts
// of a joined table, and over a filtered table whose
// ranks are too sparse for the counting sort.
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
		prepare := func(p *Pattern) func() *Presentation {
			return func() *Presentation {
				matched, err := MatchOpts(g, p, ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				pr, err := PrepareOpts(g, p, matched, ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return pr
			}
		}
		// Rows alone: base attributes plus the two neighbor columns.
		open, err := Initiate(g.Schema(), "Rows")
		if err != nil {
			t.Fatal(err)
		}
		assertSortsLikeOracle(t, form.name+"/open", rng, prepare(open))

		// One year of Rows: the id ranks of the rows kept span the whole
		// column, far over denseSpan per row, so they compare.
		filtered, err := Select(open, "dense = 1995")
		if err != nil {
			t.Fatal(err)
		}
		pr := prepare(filtered)()
		rank, err := g.AttrRank("Rows", 0)
		if err != nil {
			t.Fatal(err)
		}
		first, _ := g.TypeIDRange("Rows")
		lo, hi := int32(len(rank)), int32(-1)
		for _, id := range pr.order() {
			r := rank[id-first]
			lo, hi = min(lo, r), max(hi, r)
		}
		if int(hi-lo) < denseSpan*pr.NumRows() {
			t.Fatalf("filtered id ranks span %d over %d rows: the counting sort would take them", hi-lo, pr.NumRows())
		}
		assertSortsLikeOracle(t, form.name+"/filtered", rng, prepare(filtered))

		// Rows joined to Tags, pivoted back: Tags is a participating
		// column, counted from its count vector.
		joined, err := Add(g.Schema(), open, "Rows→Tags")
		if err != nil {
			t.Fatal(err)
		}
		if joined, err = Shift(joined, "Rows"); err != nil {
			t.Fatal(err)
		}
		assertSortsLikeOracle(t, form.name+"/joined", rng, prepare(joined))
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

// prepareOpen prepares the unfiltered table of one node type.
func prepareOpen(t *testing.T, g *tgm.InstanceGraph, typeName string) *Presentation {
	t.Helper()
	p, err := Initiate(g.Schema(), typeName)
	if err != nil {
		t.Fatal(err)
	}
	matched, err := MatchOpts(g, p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PrepareOpts(g, p, matched, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestSortNaNKeepsOrder: a column with NaN sorts every other row exactly
// as the stable value.Compare sort does, and keeps its NaN rows together
// in their receiver order, in both directions.
func TestSortNaNKeepsOrder(t *testing.T) {
	schema := tgm.NewSchemaGraph()
	if _, err := schema.AddNodeType(tgm.NodeType{Name: "T", Kind: tgm.NodeEntity, Label: "x",
		Attrs: []tgm.Attr{{Name: "x", Type: value.KindFloat}}}); err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(schema)
	rng := rand.New(rand.NewSource(3))
	pool := []value.V{value.Float(math.NaN()), value.Float(math.Inf(-1)), value.Float(-1), value.Float(0),
		value.Float(2.5), value.Int(2), value.Int(7), value.Null, value.Bool(true), value.Str("s")}
	for i := 0; i < 400; i++ {
		if _, err := g.AddNode("T", []value.V{pool[rng.Intn(len(pool))]}); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	pr := prepareOpen(t, g, "T")
	isNaN := func(id tgm.NodeID) bool {
		v := g.Node(id).AttrAt(0)
		return v.Kind() == value.KindFloat && math.IsNaN(v.AsFloat())
	}
	for _, desc := range []bool{false, true} {
		v, err := pr.SortedView(SortSpec{Attr: "x", Desc: desc})
		if err != nil {
			t.Fatal(err)
		}
		var got, nans, want []tgm.NodeID
		first, last := -1, -1
		for i, id := range v.order() {
			if isNaN(id) {
				nans = append(nans, id)
				if first < 0 {
					first = i
				}
				last = i
			} else {
				got = append(got, id)
			}
		}
		for _, id := range pr.order() {
			if !isNaN(id) {
				want = append(want, id)
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			c := value.Compare(g.Node(want[i]).AttrAt(0), g.Node(want[j]).AttrAt(0))
			if desc {
				return c > 0
			}
			return c < 0
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("desc=%v: non-NaN rows leave the stable value.Compare order", desc)
		}
		if len(nans) == 0 || last-first+1 != len(nans) || !sort.SliceIsSorted(nans, func(i, j int) bool { return nans[i] < nans[j] }) {
			t.Fatalf("desc=%v: %d NaN rows at positions %d…%d, not one block in receiver order", desc, len(nans), first, last)
		}
	}
}

// TestConcurrentFirstSortsShareOneRank: eight goroutines taking their
// first sort by one attribute at once get one permutation, and the graph
// keeps one rank for them all. Run under -race by scripts/check.sh.
func TestConcurrentFirstSortsShareOneRank(t *testing.T) {
	g := sortFuzzGraph(t, rand.New(rand.NewSource(8)), 500)
	pr := prepareOpen(t, g, "Rows")
	ai := pr.primType.AttrIndex("name")
	views := make([][]tgm.NodeID, 8)
	ranks := make([][]int32, len(views))
	errs := make([]error, len(views))
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range views {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			v, err := pr.SortedView(SortSpec{Attr: "name", Desc: true})
			if err != nil {
				errs[i] = err
				return
			}
			views[i] = v.order()
			ranks[i], errs[i] = g.AttrRank("Rows", ai)
		}()
	}
	start.Done()
	done.Wait()
	for i := range views {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(views[i], views[0]) {
			t.Fatalf("goroutine %d sorted differently", i)
		}
		if &ranks[i][0] != &ranks[0][0] {
			t.Fatalf("goroutine %d sees a rank of its own", i)
		}
	}
}

// corruptLastColumn saves g to a snapshot and flips the last byte of its
// last column section (the last attribute of the last type), returning
// the path.
func corruptLastColumn(t *testing.T, g *tgm.InstanceGraph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corrupt.etsnap")
	if _, err := snapshot.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	info, err := snapshot.ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	var off int64 = -1
	for _, sec := range info.Sections {
		if sec.Tag == "NCOL" {
			off = int64(sec.Offset + sec.Length - 1)
		}
	}
	if off < 0 {
		t.Fatal("no NCOL section")
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0x5a}, off); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSortCorruptColumn: on a lazily loaded snapshot whose sorted column
// is damaged, SortedView fails with the typed *snapshot.CorruptError —
// on every try, since a failed rank build is not kept — and leaves
// nothing pinned; a sort by an intact column of the same table runs.
func TestSortCorruptColumn(t *testing.T) {
	schema := tgm.NewSchemaGraph()
	if _, err := schema.AddNodeType(tgm.NodeType{Name: "A", Kind: tgm.NodeEntity, Label: "k",
		Attrs: []tgm.Attr{{Name: "k", Type: value.KindInt}, {Name: "s", Type: value.KindString}}}); err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(schema)
	for i := 0; i < 300; i++ {
		if _, err := g.AddNode("A", []value.V{value.Int(int64(i % 17)), value.Str(fmt.Sprintf("name %d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	ls, err := snapshot.LazyLoad(corruptLastColumn(t, g), snapshot.LazyOptions{PoolSections: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	pr := prepareOpen(t, ls.Graph, "A")
	for try := 0; try < 2; try++ {
		_, err := pr.SortedView(SortSpec{Attr: "s"})
		var ce *snapshot.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("try %d: sort by a corrupt column = %v, want *snapshot.CorruptError", try, err)
		}
		if st, _ := ls.PagerStats(); st.Pinned != 0 {
			t.Fatalf("try %d: %d columns left pinned", try, st.Pinned)
		}
	}
	if _, err := pr.SortedView(SortSpec{Attr: "k", Desc: true}); err != nil {
		t.Fatalf("sort by an intact column: %v", err)
	}
}

// TestValidateSortReadsMetadataOnly: validating a sort faults nothing in
// on an out-of-core graph — the column and its rank wait for the sort.
func TestValidateSortReadsMetadataOnly(t *testing.T) {
	built := sortFuzzGraph(t, rand.New(rand.NewSource(9)), 200)
	path := filepath.Join(t.TempDir(), "validate.etsnap")
	if _, err := snapshot.SaveFile(path, built); err != nil {
		t.Fatal(err)
	}
	ls, err := snapshot.LazyLoad(path, snapshot.LazyOptions{PoolSections: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	pr := prepareOpen(t, ls.Graph, "Rows")
	before, _ := ls.PagerStats()
	for _, spec := range sortSpecsOf(pr) {
		if err := pr.ValidateSort(spec); err != nil {
			t.Fatalf("ValidateSort(%+v): %v", spec, err)
		}
	}
	if after, _ := ls.PagerStats(); after.Misses != before.Misses {
		t.Fatalf("ValidateSort faulted %d columns in", after.Misses-before.Misses)
	}
	if _, err := pr.SortedView(SortSpec{Attr: "name"}); err != nil {
		t.Fatal(err)
	}
	if after, _ := ls.PagerStats(); after.Misses == before.Misses {
		t.Fatal("the sort itself faulted nothing in: the check above proves nothing")
	}
}
