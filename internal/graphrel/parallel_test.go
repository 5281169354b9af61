package graphrel

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

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
func assertIdenticalRelations(t *testing.T, label string, got, want *tuples) {
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

// doneAfter is a context whose Err turns to context.Canceled once it
// has been asked live more than live times.
type doneAfter struct {
	context.Context
	live, calls int
}

func (c *doneAfter) Err() error {
	c.calls++
	if c.calls > c.live {
		return context.Canceled
	}
	return nil
}

// TestParallelKernelCancellation pins SelectSet's per-morsel context
// check: a context that turns done after the first morsel stops the
// scan at the second with ctx.Err(), a done context stops it before
// any, and the same selection under a live context — the control —
// spans more than two morsels and keeps exactly the reference Select's
// nodes.
func TestParallelKernelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := bigChainGraph(t, rng)
	as, _ := base(g, "A", "A")
	ids := as.cols[0]
	pred := mustPred(t, as, "id % 3 = 1")
	if len(ids) <= 2*MorselRows {
		t.Fatalf("%d IDs span fewer than three morsels", len(ids))
	}
	want, err := Select(as, "A", pred)
	if err != nil {
		t.Fatal(err)
	}
	live := &doneAfter{Context: context.Background(), live: len(ids)}
	got, err := SelectSet(live, g, ids, pred)
	if err != nil || !slices.Equal(got.IDs(), want.cols[0]) {
		t.Fatalf("live context: %d members (err %v), Select kept %d", got.Len(), err, want.Len())
	}
	// One check before the columns are pinned and one before each morsel.
	if wantCalls := 1 + (len(ids)+MorselRows-1)/MorselRows; live.calls != wantCalls {
		t.Fatalf("live context checked %d times, want %d", live.calls, wantCalls)
	}

	// Live for the pin check and the first morsel's, done at the second.
	ctx := &doneAfter{Context: context.Background(), live: 2}
	if _, err := SelectSet(ctx, g, ids, pred); !errors.Is(err, context.Canceled) {
		t.Fatalf("context done after the first morsel: err = %v, want Canceled", err)
	}
	if ctx.calls != 3 {
		t.Errorf("context checked %d times, want 3: the scan went on past the second morsel", ctx.calls)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectSet(done, g, ids, pred); !errors.Is(err, context.Canceled) {
		t.Errorf("done context: err = %v, want Canceled", err)
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
func mustPred(t *testing.T, r *tuples, cond string) *expr.Pred {
	t.Helper()
	pred, err := compileCond(r, r.Attrs[0].Name, expr.MustParse(cond))
	if err != nil {
		t.Fatal(err)
	}
	return pred
}
