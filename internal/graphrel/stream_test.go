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
	src, err := StreamJoin(ctx, pool, budget, StreamRelationBatch(sel, batch), bs, "A-B", "A", "B")
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
// random conditions, batch sizes, and budgets, with Materialize of the
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
		got, err := Materialize(streamPipeline(t, ctx, p, budget, as, bs, cond, batch))
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
	src, err := StreamJoin(nil, nil, 1, StreamRelationBatch(as, 256), bs, "A-B", "A", "B")
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

// TestStreamLimitEquivalence asserts StreamLimit(src, k) produces
// exactly the first k rows of the unlimited stream, for limits below,
// at, and beyond the full row count.
func TestStreamLimitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")
	cond := expr.MustParse("id % 2 = 0")
	full := referencePipeline(t, as, bs, cond)
	for _, k := range []int{0, 1, 7, 100, full.Len(), full.Len() + 99} {
		src := streamPipeline(t, context.Background(), nil, 1, as, bs, cond, 512)
		got, err := Materialize(StreamLimit(src, k))
		if err != nil {
			t.Fatal(err)
		}
		wantN := k
		if wantN > full.Len() {
			wantN = full.Len()
		}
		want := full.slice(0, wantN)
		assertIdenticalRelations(t, fmt.Sprintf("limit=%d", k), got, want)
	}
}

// TestStreamLimitStopsUpstream asserts the early-termination path: a
// satisfied limit pulls no further upstream batches and propagates
// Close, so LIMIT/window consumption does O(window) upstream work.
func TestStreamLimitStopsUpstream(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := bigChainGraph(t, rng)
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")
	counter := &countingSource{src: StreamRelationBatch(as, 64)}
	src, err := StreamJoin(nil, nil, 1, counter, bs, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	lim := StreamLimit(src, 10)
	got, err := Materialize(lim)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 10 {
		t.Fatalf("limited rows = %d, want 10", got.Len())
	}
	if !counter.closed {
		t.Error("limit did not propagate Close upstream")
	}
	// The early A nodes have heavy fan-out (bigChainGraph skew), so 10
	// join rows come out of the first few 64-row batches; pulling
	// anywhere near all ~80 batches means production did not stop.
	if maxPulls := 8; counter.pulls > maxPulls {
		t.Errorf("upstream pulled %d batches for a 10-row window (want <= %d)", counter.pulls, maxPulls)
	}
}

// TestStreamCancellation covers the mid-stream cancellation path: a
// context canceled between pulls fails the next Next with ctx.Err(),
// the error is sticky, and Close propagates upstream.
func TestStreamCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := bigChainGraph(t, rng)
	pool := exec.NewPool(2)
	as, _ := Base(g, "A")
	bs, _ := Base(g, "B")
	ctx, cancel := context.WithCancel(context.Background())
	counter := &countingSource{src: StreamRelationBatch(as, 64)}
	src, err := StreamJoin(ctx, pool, 4, counter, bs, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The stage may hold already-computed batches from the first refill;
	// drain them — cancellation is checked before the next upstream pull.
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
	// Materialize surfaces cancellation from a canceled-at-start stream.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	src2, err := StreamJoin(ctx2, pool, 4, StreamRelationBatch(as, 64), bs, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(src2); !errors.Is(err, context.Canceled) {
		t.Errorf("Materialize err = %v, want Canceled", err)
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
		if _, err := StreamJoin(nil, nil, 1, src, bs, tc.edge, tc.left, tc.right); err == nil {
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
	if src, err := StreamJoin(context.Background(), nil, 1, StreamRelationBatch(as, 0), bs, "A-B", "A", "B"); !errors.Is(err, boom) {
		t.Errorf("StreamJoin over the failed load: source %v, err %v; want the loader's error at construction", src, err)
	}
	rev, err := Join(bs, as, "A-B_rev", "B", "A")
	if err != nil || rev.Len() != 2 {
		t.Fatalf("Join over the healthy reverse: %v rows, err %v", rev, err)
	}
}

// TestMaterializeEmptyAndMax covers Materialize of a stream that
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
	empty, err := StreamJoin(nil, nil, 1, StreamRelationBatch(none, 0), bs, "A-B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	er, err := Materialize(empty)
	if err != nil {
		t.Fatal(err)
	}
	if er.Len() != 0 || len(er.Attrs) != 2 || er.Attrs[0].Name != "A" || er.Attrs[1].Name != "B" {
		t.Fatalf("empty materialization: len=%d attrs=%v", er.Len(), er.Attrs)
	}

	join := func() RowSource {
		src, err := StreamJoin(nil, nil, 1, StreamRelationBatch(as, 128), bs, "A-B", "A", "B")
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	full, err := Materialize(join())
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingSource{src: StreamRelationBatch(as, 128)}
	capped, err := StreamJoin(nil, nil, 1, counter, bs, "A-B", "A", "B")
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
// stream — the streamed join's batches spliced by Materialize, then
// DistinctSorted + GroupNeighbors — equal the map oracle over the
// reference Join, whatever the batch size and budget: the shape of the
// streamed Prepare path.
func TestGroupFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	g := bigChainGraph(t, rng)
	pool := exec.NewPool(4)
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
	for _, budget := range []int{1, 4} {
		src, err := StreamJoin(context.Background(), pool, budget, StreamRelationBatch(as, 777), bs, "A-B", "A", "B")
		if err != nil {
			t.Fatal(err)
		}
		drained, err := Materialize(src)
		if err != nil {
			t.Fatal(err)
		}
		got := groupBoth(t, fmt.Sprintf("budget=%d", budget), drained, "A", "B")
		assertGroupsMatchOracle(t, fmt.Sprintf("budget=%d vs reference join", budget), got, want)
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
