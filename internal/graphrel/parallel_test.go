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
		gc, wc := got.Column(ai), want.Column(ai)
		for i := range wc {
			if gc[i] != wc[i] {
				t.Fatalf("%s: col %d row %d = %v, want %v", label, ai, i, gc[i], wc[i])
			}
		}
	}
}

// TestSelectParEquivalence asserts Select under a pool and budgets 1–8
// returns exactly the serial Select's relation, on a base relation and
// on a joined one (the memoizing selectRange arm).
func TestSelectParEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := bigChainGraph(t, rng)
	pool := exec.NewPool(4)
	ctx := context.Background()
	as, err := Base(g, "A")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Base(g, "B")
	if err != nil {
		t.Fatal(err)
	}
	joined, err := Join(as, bs, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rel  *Relation
		attr string
	}{
		{"base_single_attr", as, "A"},
		{"joined_multi_attr_memoized", joined, "A"},
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
		}
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

// TestJoinParEquivalence asserts the parallel join — StreamJoin's stage
// fanning batches out over a pool under budgets 1–8 — materializes to
// exactly the reference Join's relation, in both edge directions.
func TestJoinParEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := bigChainGraph(t, rng)
	pool := exec.NewPool(4)
	ctx := context.Background()
	as, err := Base(g, "A")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Base(g, "B")
	if err != nil {
		t.Fatal(err)
	}
	streamed := func(budget int, left, right *Relation, edge, la, ra string) *Relation {
		t.Helper()
		src, err := StreamJoin(ctx, pool, budget, StreamRelationBatch(left, 0), right, edge, la, ra)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Materialize(src)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	want, err := Join(as, bs, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 2, 4, 8} {
		assertIdenticalRelations(t, fmt.Sprintf("budget=%d", budget), streamed(budget, as, bs, "A-B", "A", "B"), want)
	}
	// The reverse direction joins through the bidirectional pair.
	wantRev, err := Join(bs, as, "A-B_rev", "B", "A")
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRelations(t, "reverse", streamed(4, bs, as, "A-B_rev", "B", "A"), wantRev)
}

// TestSmallInputsRunSerial pins what lets the engine pass a request's
// budget through unchanged: a Select over one morsel and a StreamJoin
// whose input is one batch take the serial path under a pool and budget
// 8 — the same allocations as the pool-less call and the same rows —
// while a many-morsel Select under the same budget does fan out.
func TestSmallInputsRunSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := bigChainGraph(t, rng)
	pool := exec.NewPool(4)
	ctx := context.Background()
	as, err := Base(g, "A")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Base(g, "B")
	if err != nil {
		t.Fatal(err)
	}
	morsel := as.slice(0, MorselRows)
	pred, err := compileCond(as, "A", expr.MustParse("id % 3 = 1"))
	if err != nil {
		t.Fatal(err)
	}
	sel := func(p *exec.Pool, budget int, r *Relation) *Relation {
		got, err := Select(ctx, p, budget, r, "A", pred)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	join := func(p *exec.Pool, budget int) *Relation {
		src, err := StreamJoin(ctx, p, budget, StreamRelationBatch(morsel, 0), bs, "A-B", "A", "B")
		if err != nil {
			t.Fatal(err)
		}
		got, err := Materialize(src)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	allocs := func(f func()) float64 { return testing.AllocsPerRun(20, f) }

	assertIdenticalRelations(t, "one-morsel select", sel(pool, 8, morsel), sel(nil, 1, morsel))
	if pooled, serial := allocs(func() { sel(pool, 8, morsel) }), allocs(func() { sel(nil, 1, morsel) }); pooled != serial {
		t.Errorf("one-morsel Select: %v allocs under pool+budget 8, %v serial — it fanned out", pooled, serial)
	}
	assertIdenticalRelations(t, "one-batch join", join(pool, 8), join(nil, 1))
	if pooled, serial := allocs(func() { join(pool, 8) }), allocs(func() { join(nil, 1) }); pooled != serial {
		t.Errorf("one-batch StreamJoin: %v allocs under pool+budget 8, %v serial — it fanned out", pooled, serial)
	}
	// The control: the measurement sees a real fan-out.
	if pooled, serial := allocs(func() { sel(pool, 8, as) }), allocs(func() { sel(nil, 1, as) }); pooled <= serial {
		t.Errorf("%d-row Select: %v allocs under pool+budget 8, %v serial — expected the fan-out's extra allocations", as.Len(), pooled, serial)
	}
}

func TestParallelKernelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := bigChainGraph(t, rng)
	pool := exec.NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	as, _ := Base(g, "A")
	pred, err := compileCond(as, "A", expr.MustParse("id > 3"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Select(ctx, pool, 4, as, "A", pred); !errors.Is(err, context.Canceled) {
		t.Errorf("pooled Select err = %v, want Canceled", err)
	}
	// The serial path must honor cancellation too.
	if _, err := Select(ctx, nil, 1, as, "A", pred); !errors.Is(err, context.Canceled) {
		t.Errorf("serial Select err = %v, want Canceled", err)
	}
}

// batches drains r through the pipeline's leaf source in batchRows-row
// partitions.
func batches(t *testing.T, r *Relation, batchRows int) []*Relation {
	t.Helper()
	var parts []*Relation
	src := StreamRelationBatch(r, batchRows)
	for {
		b, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return parts
		}
		parts = append(parts, b)
	}
}

// TestPartitionsConcatRoundtrip: partitioning a relation into the leaf
// source's batches and splicing them back with Concat reproduces it
// exactly, for batch sizes below, at, and above the row count.
func TestPartitionsConcatRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")
	j, err := Join(as, bs, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1000, MorselRows, 0, j.Len() / 3, j.Len(), j.Len() + 5} {
		parts := batches(t, j, size)
		total := 0
		for _, p := range parts {
			if len(p.Attrs) != len(j.Attrs) {
				t.Fatalf("size=%d: partition attrs %d", size, len(p.Attrs))
			}
			total += p.Len()
		}
		if total != j.Len() {
			t.Fatalf("size=%d: partitions cover %d rows, want %d", size, total, j.Len())
		}
		back, err := Concat(parts...)
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalRelations(t, fmt.Sprintf("roundtrip size=%d", size), back, j)
	}
}

func TestPartitionsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	empty, err := selectCond(as, "A", expr.MustParse("id < 0"))
	if err != nil {
		t.Fatal(err)
	}
	if parts := batches(t, empty, 4); len(parts) != 0 {
		t.Errorf("empty relation yields %d partitions", len(parts))
	}
	// A non-positive batch size means one morsel per batch.
	parts := batches(t, as, 0)
	if parts[0].Len() != MorselRows {
		t.Errorf("default batch = %d rows, want %d", parts[0].Len(), MorselRows)
	}
	// Partitions are zero-copy windows of the parent's columns.
	if &parts[0].Column(0)[0] != &as.Column(0)[0] || &parts[1].Column(0)[0] != &as.Column(0)[MorselRows] {
		t.Error("partitions do not alias the parent column")
	}
}

func TestConcatErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")
	if _, err := Concat(); err == nil {
		t.Error("empty Concat accepted")
	}
	if _, err := Concat(as, bs); err == nil {
		t.Error("Concat with mismatched attrs accepted")
	}
	g2 := bigChainGraph(t, rand.New(rand.NewSource(8)))
	as2, _ := Base(g2, "A")
	if _, err := Concat(as, as2); err == nil {
		t.Error("Concat across graphs accepted")
	}
}

// TestGroupNeighborsDeterministicOrder is the regression test for the
// encounter-order leak: the same tuple set reached through two different
// join orders (hence different row orders) must group to identical,
// ID-ascending neighbor lists.
func TestGroupNeighborsDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")
	fwd, err := Join(as, bs, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	// The reverse join yields the same tuple set in a different row
	// order (B-major instead of A-major).
	rev, err := Join(bs, as, "A-B_rev", "B", "A")
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
