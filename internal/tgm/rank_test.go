package tgm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/value"
)

// rankGraph is a one-type graph whose only attribute column is col.
func rankGraph(t *testing.T, col []value.V) *InstanceGraph {
	t.Helper()
	sg := NewSchemaGraph()
	if _, err := sg.AddNodeType(NodeType{Name: "T", Label: "v", Attrs: []Attr{{Name: "v", Type: value.KindString}}}); err != nil {
		t.Fatal(err)
	}
	g := NewInstanceGraph(sg)
	for _, v := range col {
		if _, err := g.AddNode("T", []value.V{v}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// mustRank freezes a graph over col and returns the column's rank.
func mustRank(t *testing.T, col []value.V) []int32 {
	t.Helper()
	g := rankGraph(t, col)
	g.Freeze()
	rank, err := g.AttrRank("T", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rank) != len(col) {
		t.Fatalf("rank of %d rows for a column of %d", len(rank), len(col))
	}
	return rank
}

// assertDense checks that the ranks are exactly 0 … distinct−1.
func assertDense(t *testing.T, name string, rank []int32) {
	t.Helper()
	seen := map[int32]bool{}
	hi := int32(-1)
	for _, r := range rank {
		seen[r] = true
		hi = max(hi, r)
	}
	if int(hi)+1 != len(seen) || (len(rank) > 0 && !seen[0]) {
		t.Fatalf("%s: ranks are not dense: %d distinct, max %d", name, len(seen), hi)
	}
}

// assertRankOrders checks rank against value.Compare on every pair of
// rows for which keep returns true.
func assertRankOrders(t *testing.T, name string, col []value.V, rank []int32, keep func(value.V) bool) {
	t.Helper()
	for a := range col {
		for b := range col {
			if !keep(col[a]) || !keep(col[b]) {
				continue
			}
			if want, got := value.Compare(col[a], col[b]), cmp.Compare(rank[a], rank[b]); want != got {
				t.Fatalf("%s: rows %d (%v, rank %d) and %d (%v, rank %d): Compare %d, rank order %d",
					name, a, col[a], rank[a], b, col[b], rank[b], want, got)
			}
		}
	}
}

func all(value.V) bool { return true }

// TestAttrRankOrdersLikeCompare is the rank's property test: over every
// pair of rows of a column, rank(a) < rank(b) ⇔ value.Compare(a, b) < 0
// (and equal ranks ⇔ equal values), for each build kernel — dense and
// sparse integers, booleans, strings, and the comparator over FLOATs,
// NULLs and mixed kinds — with heavy duplicates.
func TestAttrRankOrdersLikeCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	floats := []float64{math.Inf(-1), -1e300, -2.5, math.Copysign(0, -1), 0, 1e-9, 1, 1.5, 3, 1e18, math.Inf(1)}
	prefix := "Efficient query answering in relational databases"
	strs := []string{"", "a", "aa", "ab", "b", "Zoë", "zoë", "Zoe", "日本", "日本語", "\x00", "\xff",
		prefix, prefix + " (part 1)", prefix + " (part 10)", prefix + " (part 2)"}
	gen := map[string]func() value.V{
		"dense int": func() value.V { return value.Int(int64(rng.Intn(30) - 5)) },
		"sparse int": func() value.V {
			edge := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -1, 0, 1 << 62}
			if rng.Intn(3) == 0 {
				return value.Int(edge[rng.Intn(len(edge))])
			}
			return value.Int(rng.Int63() - rng.Int63())
		},
		"bool":   func() value.V { return value.Bool(rng.Intn(2) == 0) },
		"float":  func() value.V { return value.Float(floats[rng.Intn(len(floats))]) },
		"string": func() value.V { return value.Str(strs[rng.Intn(len(strs))]) },
		"int with nulls": func() value.V {
			if rng.Intn(4) == 0 {
				return value.Null
			}
			return value.Int(int64(rng.Intn(9)))
		},
		"null": func() value.V { return value.Null },
		"mixed": func() value.V {
			switch rng.Intn(5) {
			case 0:
				return value.Null
			case 1:
				return value.Bool(rng.Intn(2) == 0)
			case 2:
				return value.Int(int64(rng.Intn(7) - 3))
			case 3:
				return value.Float(floats[rng.Intn(len(floats))])
			default:
				return value.Str(strs[rng.Intn(len(strs))])
			}
		},
	}
	for name, next := range gen {
		for _, n := range []int{1, 2, 17, 300} {
			col := make([]value.V, n)
			for i := range col {
				col[i] = next()
			}
			label := fmt.Sprintf("%s n=%d", name, n)
			rank := mustRank(t, col)
			assertDense(t, label, rank)
			assertRankOrders(t, label, col, rank, all)
		}
	}
}

// TestAttrRankNaN: NaN, which value.Compare calls equal to every number,
// gets one rank of its own — below the column's numbers, above its
// BOOLs and NULLs — so it never merges two distinct numeric ranks, and
// every other pair keeps exactly Compare's order.
func TestAttrRankNaN(t *testing.T) {
	nan := value.Float(math.NaN())
	col := []value.V{value.Float(2), nan, value.Int(1), value.Null, nan, value.Float(math.Inf(-1)),
		value.Bool(true), value.Str("x"), value.Int(2), nan, value.Float(0.5), value.Bool(false)}
	rank := mustRank(t, col)
	assertDense(t, "nan", rank)
	isNaN := func(v value.V) bool { return v.Kind() == value.KindFloat && math.IsNaN(v.AsFloat()) }
	assertRankOrders(t, "nan", col, rank, func(v value.V) bool { return !isNaN(v) })
	nanRank := rank[1]
	for i, v := range col {
		switch {
		case isNaN(v):
			if rank[i] != nanRank {
				t.Fatalf("NaN rows have ranks %d and %d", nanRank, rank[i])
			}
		case v.IsNumeric() && rank[i] <= nanRank:
			t.Fatalf("number %v ranks %d, not above NaN's %d", v, rank[i], nanRank)
		case !v.IsNumeric() && v.Kind() != value.KindString && rank[i] >= nanRank:
			t.Fatalf("%v ranks %d, not below NaN's %d", v, rank[i], nanRank)
		case v.Kind() == value.KindString && rank[i] <= nanRank:
			t.Fatalf("string %v ranks %d, not above NaN's %d", v, rank[i], nanRank)
		}
	}
}

// TestAttrRankBeyond2p53 documents the rank's other exclusion: in a
// column mixing INTs and FLOATs past ±2^53, value.Compare — which
// compares an INT with a FLOAT as float64 — is not transitive, so no
// total order agrees with it on every pair, and the property test's
// generators stay below 2^53 on mixed columns. Such a column still
// gets dense, deterministic ranks; here the FLOAT between them merges
// two INTs that Compare orders.
func TestAttrRankBeyond2p53(t *testing.T) {
	a, b, f := value.Int(1<<53), value.Int(1<<53+1), value.Float(1<<53)
	if value.Compare(a, b) >= 0 || value.Compare(a, f) != 0 || value.Compare(b, f) != 0 {
		t.Fatal("value.Compare became transitive past 2^53: drop the exclusion from tgm/rank.go")
	}
	col := []value.V{b, f, a, b, f}
	rank := mustRank(t, col)
	assertDense(t, "2^53", rank)
	if again := mustRank(t, col); fmt.Sprint(again) != fmt.Sprint(rank) {
		t.Fatalf("ranks %v then %v over one column", rank, again)
	}
}

var errFault = errors.New("column fault")

// countingSource serves one column and counts its reads and pins; while
// failing is set every read fails.
type countingSource struct {
	col     value.Column
	reads   atomic.Int32
	pins    atomic.Int32
	failing atomic.Bool
}

func (s *countingSource) Column(string, int) (value.Column, error) {
	s.reads.Add(1)
	time.Sleep(time.Millisecond) // widen the window for concurrent first calls
	if s.failing.Load() {
		return value.Column{}, errFault
	}
	return s.col, nil
}

func (s *countingSource) PinColumn(typeName string, ai int) (value.Column, func(), error) {
	s.pins.Add(1)
	col, err := s.Column(typeName, ai)
	return col, func() { s.pins.Add(-1) }, err
}

// sourcedGraph is a frozen one-type graph whose column is served by src.
func sourcedGraph(t *testing.T, src *countingSource) *InstanceGraph {
	t.Helper()
	g := NewInstanceGraph(rankGraph(t, nil).Schema())
	if err := g.InstallNodes(make([]int32, src.col.Len())); err != nil {
		t.Fatal(err)
	}
	if err := g.SetColumnSource(src); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	return g
}

// TestAttrRankConcurrentFirstCallsBuildOnce: eight goroutines asking
// for a column's rank at once share one build — one column read, one
// backing array, the one the registry then holds — and pin nothing.
func TestAttrRankConcurrentFirstCallsBuildOnce(t *testing.T) {
	col := make([]value.V, 500)
	for i := range col {
		col[i] = value.Str(fmt.Sprintf("row %d", (i*37)%500))
	}
	src := &countingSource{col: value.NewColumn(col)}
	g := sourcedGraph(t, src)
	ranks := make([][]int32, 8)
	errs := make([]error, len(ranks))
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range ranks {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			ranks[i], errs[i] = g.AttrRank("T", 0)
		}()
	}
	start.Done()
	done.Wait()
	for i := range ranks {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if &ranks[i][0] != &ranks[0][0] {
			t.Fatalf("goroutine %d got a rank of its own", i)
		}
	}
	if n := src.reads.Load(); n != 1 {
		t.Fatalf("%d column reads for one rank, want 1", n)
	}
	if n := src.pins.Load(); n != 0 {
		t.Fatalf("rank build left %d pins", n)
	}
	if kept, ok := Peek[[]int32](g, rankKey{"T", 0}); !ok || &kept[0] != &ranks[0][0] {
		t.Fatal("the shared rank is not the registry's")
	}
	assertRankOrders(t, "concurrent", col, ranks[0], all)
}

// TestAttrRankFaultIsNotMemoized: a rank is derived state in the
// graph's registry (Derive, whose contract derived_test.go tests). A
// failed column read is the call's error and is not kept — the next
// call reads again and builds — while a built rank is the registry's,
// read without a pin.
func TestAttrRankFaultIsNotMemoized(t *testing.T) {
	src := &countingSource{col: value.NewColumn([]value.V{value.Int(3), value.Int(1), value.Int(2)})}
	src.failing.Store(true)
	g := sourcedGraph(t, src)
	if _, err := g.AttrRank("T", 0); !errors.Is(err, errFault) {
		t.Fatalf("AttrRank over a failing column = %v, want the source's error", err)
	}
	if _, ok := Peek[[]int32](g, rankKey{"T", 0}); ok {
		t.Fatal("a failed rank build was kept")
	}
	src.failing.Store(false)
	rank, err := g.AttrRank("T", 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := g.AttrRank("T", 0)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &rank[0] || src.reads.Load() != 2 {
		t.Fatalf("after a fault and a build: %d reads, shared rank %v; want 2 reads and one rank",
			src.reads.Load(), &again[0] == &rank[0])
	}
	if want := []int32{2, 0, 1}; fmt.Sprint(rank) != fmt.Sprint(want) {
		t.Fatalf("rank %v, want %v", rank, want)
	}
	if kept, ok := Peek[[]int32](g, rankKey{"T", 0}); !ok || &kept[0] != &rank[0] {
		t.Fatal("the built rank is not the registry's")
	}
	if n := src.pins.Load(); n != 0 {
		t.Fatalf("rank builds left %d pins", n)
	}
}

// TestAttrRankUnfrozenRanksPerCall: an unfrozen graph may still grow, so
// each call ranks the column as it is.
func TestAttrRankUnfrozenRanksPerCall(t *testing.T) {
	g := rankGraph(t, []value.V{value.Str("b"), value.Str("a")})
	first, err := g.AttrRank("T", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode("T", []value.V{value.Str("0")}); err != nil {
		t.Fatal(err)
	}
	second, err := g.AttrRank("T", 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first) != "[1 0]" || fmt.Sprint(second) != "[2 1 0]" {
		t.Fatalf("ranks %v then %v, want [1 0] then [2 1 0]", first, second)
	}
	if _, err := g.AttrRank("T", 1); err == nil {
		t.Fatal("AttrRank of a missing ordinal succeeded")
	}
	if _, err := g.AttrRank("Nope", 0); err == nil {
		t.Fatal("AttrRank of an unknown type succeeded")
	}
}
