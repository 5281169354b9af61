package graphrel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/tgm"
	"repro/internal/value"
)

// bigChainGraph builds an A→B chain large enough that relations span
// many morsels (|A| ≈ 4×MorselRows), with skewed fan-out so morsel
// workloads are unbalanced.
func bigChainGraph(t testing.TB, rng *rand.Rand) *tgm.InstanceGraph {
	t.Helper()
	s := tgm.NewSchemaGraph()
	for _, name := range []string{"A", "B"} {
		if _, err := s.AddNodeType(tgm.NodeType{Name: name, Label: "id",
			Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddBidirectional(tgm.EdgeType{Name: "A-B", Source: "A", Target: "B"}); err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(s)
	nA := 4*MorselRows + rng.Intn(MorselRows)
	nB := MorselRows + rng.Intn(MorselRows)
	var as, bs []tgm.NodeID
	for i := 0; i < nA; i++ {
		id, err := g.AddNode("A", []value.V{value.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		as = append(as, id)
	}
	for i := 0; i < nB; i++ {
		id, err := g.AddNode("B", []value.V{value.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, id)
	}
	for i, src := range as {
		// Skew: early A nodes fan out to many B nodes, the long tail to
		// at most one.
		deg := 1
		if i < 64 {
			deg = 1 + rng.Intn(48)
		} else if rng.Intn(3) == 0 {
			deg = 0
		}
		for d := 0; d < deg; d++ {
			if err := g.AddEdge("A-B", src, bs[rng.Intn(nB)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Freeze()
	return g
}

// assertIdenticalRelations asserts exact row-for-row, column-for-column
// equality — the parallel kernels promise identical output, not merely
// an equal tuple set.
func assertIdenticalRelations(t *testing.T, label string, got, want *Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	if len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("%s: %d attrs, want %d", label, len(got.Attrs), len(want.Attrs))
	}
	for ai := range want.Attrs {
		if got.Attrs[ai] != want.Attrs[ai] {
			t.Fatalf("%s: attr %d = %v, want %v", label, ai, got.Attrs[ai], want.Attrs[ai])
		}
		gc, wc := got.cols[ai], want.cols[ai]
		for i := range wc {
			if gc[i] != wc[i] {
				t.Fatalf("%s: col %d row %d = %v, want %v", label, ai, i, gc[i], wc[i])
			}
		}
	}
}

// TestSelectParEquivalence asserts Select under a pool and budgets 1–8
// returns exactly the serial Select's relation, on a base relation and
// on a joined one whose attribute column repeats nodes, and SelectSet
// under the same pools exactly the set of the base's selected nodes;
// a condition compiled for another type is refused.
func TestSelectParEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := bigChainGraph(t, rng)
	pool := exec.NewPool(4)
	ctx := context.Background()
	as, err := base(g, "A", "A")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := base(g, "B", "B")
	if err != nil {
		t.Fatal(err)
	}
	joined, err := pairs(g, "A", "B", "A-B")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rel  *Relation
		attr string
	}{
		{"base_single_attr", as, "A"},
		{"joined_multi_attr", joined, "A"},
	} {
		for _, budget := range []int{1, 2, 4, 8} {
			pred, err := compileCond(tc.rel, tc.attr, expr.MustParse(fmt.Sprintf("id %% %d = %d", 2+budget%3, budget%2)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := Select(nil, nil, 1, tc.rel, tc.attr, pred)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Select(ctx, pool, budget, tc.rel, tc.attr, pred)
			if err != nil {
				t.Fatal(err)
			}
			assertIdenticalRelations(t, fmt.Sprintf("%s/budget=%d", tc.name, budget), got, want)
			if tc.rel != as {
				continue
			}
			set, err := SelectSet(ctx, pool, budget, g, as.cols[0], pred)
			if err != nil {
				t.Fatal(err)
			}
			if ids, wantIDs := set.IDs(), want.cols[0]; !slices.Equal(ids, wantIDs) || set.Len() != len(wantIDs) {
				t.Fatalf("SelectSet budget=%d: %d members, Select kept %d rows", budget, set.Len(), len(wantIDs))
			}
		}
	}
	if _, err := SelectSet(ctx, pool, 4, g, bs.cols[0], mustPred(t, as, "id = 1")); err == nil {
		t.Error("SelectSet ran an A condition over B nodes")
	}
	// A nil predicate returns the input unchanged on the pooled path too.
	same, err := Select(ctx, pool, 4, as, "A", nil)
	if err != nil || same != as {
		t.Fatalf("nil pred: got %p (err %v), want input %p", same, err, as)
	}
	pred, err := compileCond(as, "A", expr.MustParse("id = 1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Select(ctx, pool, 4, as, "Nope", pred); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// TestSmallInputsRunSerial pins what lets the engine pass a request's
// budget through unchanged: a SelectSet over one morsel takes the
// serial path under a pool and budget 8 — the same allocations as the
// pool-less call and the same set — while a many-morsel SelectSet under
// the same budget does fan out.
func TestSmallInputsRunSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := bigChainGraph(t, rng)
	pool := exec.NewPool(4)
	ctx := context.Background()
	as, err := base(g, "A", "A")
	if err != nil {
		t.Fatal(err)
	}
	all, morsel := as.cols[0], as.cols[0][:MorselRows]
	pred := mustPred(t, as, "id % 3 = 1")
	sel := func(p *exec.Pool, budget int, ids []tgm.NodeID) NodeSet {
		got, err := SelectSet(ctx, p, budget, g, ids, pred)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	allocs := func(f func()) float64 { return testing.AllocsPerRun(20, f) }

	if got, want := sel(pool, 8, morsel), sel(nil, 1, morsel); !slices.Equal(got.IDs(), want.IDs()) {
		t.Fatal("one-morsel SelectSet differs under a pool")
	}
	if pooled, serial := allocs(func() { sel(pool, 8, morsel) }), allocs(func() { sel(nil, 1, morsel) }); pooled != serial {
		t.Errorf("one-morsel SelectSet: %v allocs under pool+budget 8, %v serial — it fanned out", pooled, serial)
	}
	// The control: the measurement sees a real fan-out.
	if pooled, serial := allocs(func() { sel(pool, 8, all) }), allocs(func() { sel(nil, 1, all) }); pooled <= serial {
		t.Errorf("%d-node SelectSet: %v allocs under pool+budget 8, %v serial — expected the fan-out's extra allocations", len(all), pooled, serial)
	}
}

func TestParallelKernelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := bigChainGraph(t, rng)
	pool := exec.NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	as, _ := base(g, "A", "A")
	pred := mustPred(t, as, "id > 3")
	if _, err := SelectSet(ctx, pool, 4, g, as.cols[0], pred); !errors.Is(err, context.Canceled) {
		t.Errorf("pooled SelectSet err = %v, want Canceled", err)
	}
	// The serial path must honor cancellation too.
	if _, err := SelectSet(ctx, nil, 1, g, as.cols[0], pred); !errors.Is(err, context.Canceled) {
		t.Errorf("serial SelectSet err = %v, want Canceled", err)
	}
}

// TestPartitionsEdgeCases pins the morsel partition SelectSet fans out
// over: contiguous runs covering [0, n) in order, each at most size long
// and only the last shorter, for sizes below, at and above n, and none
// for an empty input or a non-positive size.
func TestPartitionsEdgeCases(t *testing.T) {
	for _, n := range []int{1, MorselRows - 1, MorselRows, 3*MorselRows + 5} {
		for _, size := range []int{1000, MorselRows, n, n + 5} {
			bounds := morselBounds(n, size)
			next := 0
			for i, b := range bounds {
				if b[0] != next || b[1] <= b[0] || b[1]-b[0] > size || (i < len(bounds)-1 && b[1]-b[0] != size) {
					t.Fatalf("n=%d size=%d: run %d = %v after %d", n, size, i, b, next)
				}
				next = b[1]
			}
			if next != n {
				t.Fatalf("n=%d size=%d: runs cover [0, %d)", n, size, next)
			}
		}
	}
	for _, nb := range [][2]int{{0, 4}, {-1, 4}, {5, 0}, {5, -1}} {
		if b := morselBounds(nb[0], nb[1]); b != nil {
			t.Errorf("morselBounds(%d, %d) = %v, want none", nb[0], nb[1], b)
		}
	}
}

// TestGroupNeighborsDeterministicOrder is the regression test for the
// encounter-order leak: the same tuple set reached through two different
// join orders (hence different row orders) must group to identical,
// ID-ascending neighbor lists.
func TestGroupNeighborsDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := bigChainGraph(t, rng)
	fwd, err := pairs(g, "A", "B", "A-B")
	if err != nil {
		t.Fatal(err)
	}
	// The reverse join yields the same tuple set in a different row
	// order (B-major instead of A-major).
	rev, err := pairs(g, "B", "A", "A-B_rev")
	if err != nil {
		t.Fatal(err)
	}
	gf, gr := groupBoth(t, "forward", fwd, "A", "B"), groupBoth(t, "reverse", rev, "A", "B")
	if !slices.Equal(gf.keys, gr.keys) || !slices.Equal(gf.offs, gr.offs) || !slices.Equal(gf.vals, gr.vals) {
		t.Fatal("groupings of one tuple set differ between join orders (join order leaked)")
	}
	for k := range gf.keys {
		if ids := gf.vals[gf.offs[k]:gf.offs[k+1]]; !slices.IsSorted(ids) {
			t.Fatalf("group %v not ID-ascending: %v", gf.keys[k], ids)
		}
	}
}

// mustPred compiles cond for r's first attribute.
func mustPred(t *testing.T, r *Relation, cond string) *expr.Pred {
	t.Helper()
	pred, err := compileCond(r, r.Attrs[0].Name, expr.MustParse(cond))
	if err != nil {
		t.Fatal(err)
	}
	return pred
}
