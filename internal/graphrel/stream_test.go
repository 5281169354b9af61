package graphrel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/tgm"
	"repro/internal/value"
)

// countingSource wraps a RowSource and records how many batches were
// pulled and whether Close propagated — the observability the
// early-termination tests need.
type countingSource struct {
	src    RowSource
	pulls  int
	closed bool
}

func (c *countingSource) Graph() *tgm.InstanceGraph { return c.src.Graph() }
func (c *countingSource) Attrs() []Attr             { return c.src.Attrs() }
func (c *countingSource) Close()                    { c.closed = true; c.src.Close() }
func (c *countingSource) Next() (*Relation, error) {
	c.pulls++
	return c.src.Next()
}

// streamPipeline is the execution pipeline's shape over the A–B chain
// graph: a selected base (Select under the given pool and budget)
// streamed in batch-row batches through one StreamJoin stage.
func streamPipeline(t *testing.T, ctx context.Context, pool *exec.Pool, budget int, as, bs *Relation, cond expr.Expr, batch int) RowSource {
	t.Helper()
	pred, err := compileCond(as, "A", cond)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(ctx, pool, budget, as, "A", pred)
	if err != nil {
		t.Fatal(err)
	}
	src, err := StreamJoin(ctx, StreamRelationBatch(sel, batch), bs, "A-B", false, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// referencePipeline is the same query through the algebra's reference
// operators: the serial Select, then Join.
func referencePipeline(t *testing.T, as, bs *Relation, cond expr.Expr) *Relation {
	t.Helper()
	sel, err := selectCond(as, "A", cond)
	if err != nil {
		t.Fatal(err)
	}
	j, err := Join(sel, bs, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestStreamEquivalenceRandomized is the streamed ≡ reference fuzz:
// random conditions, batch sizes, and budgets, with MaterializeMax of the
// streamed pipeline asserted row- and column-identical to the
// reference operators (not merely set-equal).
func TestStreamEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
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
	for trial := 0; trial < 12; trial++ {
		mod := 2 + rng.Intn(5)
		cond := expr.MustParse(fmt.Sprintf("id %% %d = %d", mod, rng.Intn(mod)))
		batch := 1 + rng.Intn(2*MorselRows)
		budget := 1 + rng.Intn(6)
		var p *exec.Pool
		if rng.Intn(4) > 0 {
			p = pool
		}
		want := referencePipeline(t, as, bs, cond)
		got, err := MaterializeMax(streamPipeline(t, ctx, p, budget, as, bs, cond, batch), 0)
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalRelations(t,
			fmt.Sprintf("trial=%d batch=%d budget=%d pooled=%v", trial, batch, budget, p != nil),
			got, want)
	}
}

// TestStreamBatchBounds asserts the streamed pipeline's memory
// discipline: every batch a stage emits is bounded by what its inputs
// can produce, and batches carry the advertised attribute list.
func TestStreamBatchBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")
	src, err := StreamJoin(nil, StreamRelationBatch(as, 256), bs, "A-B", false, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if len(src.Attrs()) != 2 || src.Attrs()[0].Name != "A" || src.Attrs()[1].Name != "B" {
		t.Fatalf("join attrs = %v", src.Attrs())
	}
	for {
		b, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() == 0 {
			t.Fatal("stream emitted an empty batch")
		}
		if len(b.Attrs) != 2 {
			t.Fatalf("batch attrs = %v", b.Attrs)
		}
	}
}

// TestStreamCancellation covers the mid-stream cancellation path: a
// context canceled between pulls fails the next Next with ctx.Err(),
// the error is sticky, and Close propagates upstream.
func TestStreamCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")
	ctx, cancel := context.WithCancel(context.Background())
	counter := &countingSource{src: StreamRelationBatch(as, 64)}
	src, err := StreamJoin(ctx, counter, bs, "A-B", false, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The stage may hold already-computed slices of the first probe
	// batch; drain them — cancellation is checked before the next
	// upstream pull.
	for {
		b, err := src.Next()
		if errors.Is(err, context.Canceled) {
			break
		}
		if err != nil {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if b == nil {
			t.Fatal("stream ended without surfacing cancellation")
		}
	}
	if _, err := src.Next(); !errors.Is(err, context.Canceled) {
		t.Errorf("error not sticky: %v", err)
	}
	if !counter.closed {
		t.Error("cancellation did not propagate Close upstream")
	}
	// MaterializeMax surfaces cancellation from a canceled-at-start stream.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	src2, err := StreamJoin(ctx2, StreamRelationBatch(as, 64), bs, "A-B", false, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MaterializeMax(src2, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("MaterializeMax err = %v, want Canceled", err)
	}
}

// TestStreamConstructionErrors mirrors Join's validation: unknown edge
// types and attributes and mistyped endpoints fail at construction,
// before any batch is pulled.
func TestStreamConstructionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")
	src := StreamRelationBatch(as, 0)
	for _, tc := range []struct{ name, edge, left, right string }{
		{"unknown edge type", "Nope", "A", "B"},
		{"unknown left attribute", "A-B", "Nope", "B"},
		{"unknown right attribute", "A-B", "A", "Nope"},
		{"edge against its orientation", "A-B_rev", "A", "B"},
	} {
		if _, err := StreamJoin(nil, src, bs, tc.edge, false, tc.left, tc.right); err == nil {
			t.Errorf("StreamJoin accepted %s", tc.name)
		}
	}
}

// TestJoinOverUnreadableAdjacency: a deferred adjacency whose load
// fails used to probe as "no neighbors" — Join and StreamJoin returned
// an empty relation and a nil error. Both now resolve and load the
// adjacency handle at construction and return the loader's error,
// while the healthy reverse direction of the same edge joins.
func TestJoinOverUnreadableAdjacency(t *testing.T) {
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
	for _, name := range []string{"A", "A", "B"} { // A: 0, 1; B: 2
		if _, err := g.AddNode(name, []value.V{value.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("adjacency section unreadable")
	if err := g.InstallAdjacencyDeferred("A-B", 2, func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
		return nil, nil, nil, boom
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.InstallAdjacencyDeferred("A-B_rev", 2, func() ([]tgm.NodeID, []int32, []tgm.NodeID, error) {
		return []tgm.NodeID{2}, []int32{0, 2}, []tgm.NodeID{0, 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")
	if r, err := Join(as, bs, "A-B", "A", "B"); !errors.Is(err, boom) {
		t.Errorf("Join over the failed load: relation %v, err %v; want the loader's error", r, err)
	}
	if src, err := StreamJoin(context.Background(), StreamRelationBatch(as, 0), bs, "A-B", false, "A", "B"); !errors.Is(err, boom) {
		t.Errorf("StreamJoin over the failed load: source %v, err %v; want the loader's error at construction", src, err)
	}
	rev, err := Join(bs, as, "A-B_rev", "B", "A")
	if err != nil || rev.Len() != 2 {
		t.Fatalf("Join over the healthy reverse: %v rows, err %v", rev, err)
	}
}

// TestMaterializeEmptyAndMax covers MaterializeMax of a stream that
// produces nothing (well-formed empty relation, attrs preserved) and
// the MaterializeMax row cap.
func TestMaterializeEmptyAndMax(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")

	none, err := selectCond(as, "A", expr.MustParse("id < 0"))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := StreamJoin(nil, StreamRelationBatch(none, 0), bs, "A-B", false, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	er, err := MaterializeMax(empty, 0)
	if err != nil {
		t.Fatal(err)
	}
	if er.Len() != 0 || len(er.Attrs) != 2 || er.Attrs[0].Name != "A" || er.Attrs[1].Name != "B" {
		t.Fatalf("empty materialization: len=%d attrs=%v", er.Len(), er.Attrs)
	}

	join := func() RowSource {
		src, err := StreamJoin(nil, StreamRelationBatch(as, 128), bs, "A-B", false, "A", "B")
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	full, err := MaterializeMax(join(), 0)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingSource{src: StreamRelationBatch(as, 128)}
	capped, err := StreamJoin(nil, counter, bs, "A-B", false, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	_, err = MaterializeMax(capped, 10)
	var rle *RowLimitError
	if !errors.As(err, &rle) || rle.Limit != 10 {
		t.Fatalf("MaterializeMax err = %v, want RowLimitError{10}", err)
	}
	if !counter.closed {
		t.Error("row cap did not terminate upstream")
	}
	ok, err := MaterializeMax(join(), full.Len())
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRelations(t, "at-cap", ok, full)
}

// TestGroupFoldEquivalence asserts the pipeline breakers over a drained
// stream — the streamed join's batches spliced by MaterializeMax, then
// DistinctSorted + GroupNeighbors — equal the map oracle over the
// reference Join, whatever the batch size: the shape of the streamed
// Prepare path.
func TestGroupFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")
	joined, err := Join(as, bs, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	want, err := GroupNeighborsOracle(joined, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{777, 0} {
		src, err := StreamJoin(context.Background(), StreamRelationBatch(as, batch), bs, "A-B", false, "A", "B")
		if err != nil {
			t.Fatal(err)
		}
		drained, err := MaterializeMax(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := groupBoth(t, fmt.Sprintf("batch=%d", batch), drained, "A", "B")
		assertGroupsMatchOracle(t, fmt.Sprintf("batch=%d vs reference join", batch), got, want)
	}
}

// TestConcatAllEdgeCases pins ConcatAll's contract: zero parts yield an
// empty relation with the given attrs, one part is returned unchanged.
func TestConcatAllEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	e, err := ConcatAll(g, as.Attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 0 || len(e.Attrs) != 1 {
		t.Fatalf("empty ConcatAll: len=%d attrs=%v", e.Len(), e.Attrs)
	}
	one, err := ConcatAll(g, as.Attrs, []*Relation{as})
	if err != nil {
		t.Fatal(err)
	}
	if one != as {
		t.Fatalf("single-part ConcatAll copied: %p want %p", one, as)
	}
}
