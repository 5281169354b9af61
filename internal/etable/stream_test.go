package etable

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/graphrel"
)

// withSmallStreamBatches shrinks the streamed pipeline's batch size so
// the test corpus spans many batches, restoring it on cleanup.
func withSmallStreamBatches(t *testing.T, rows int) {
	t.Helper()
	old := streamBatchRows
	streamBatchRows = rows
	t.Cleanup(func() { streamBatchRows = old })
}

// assertSameRelations asserts exact row-for-row equality through the
// exported accessors (the etable-level mirror of graphrel's identity
// assertion).
func assertSameRelations(t *testing.T, label string, got, want *graphrel.Relation) {
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

// TestStreamMatchEquivalence asserts the engine's match equals the
// oracle's tuple set on the paper's figure patterns, and that it is the
// same relation row for row whether the pipeline ran in 7-row batches
// or morsels, serial or fanned out over a pool — the identity that
// keeps responses byte-stable across budgets.
func TestStreamMatchEquivalence(t *testing.T) {
	tr := planFixture(t)
	pool := exec.NewPool(4)
	for name, p := range map[string]*Pattern{
		"figure1": figure1PlanPattern(t, tr),
		"figure7": figure7PlanPattern(t, tr),
	} {
		oracle := oracleTuples(t, tr.Instance, p)
		var first *graphrel.Relation
		for _, tc := range []struct {
			label string
			batch int
			opt   ExecOptions
		}{
			{"serial_morsel", 0, ExecOptions{}},
			{"serial_small_batches", 7, ExecOptions{}},
			{"pooled", 13, ExecOptions{Ctx: context.Background(), Pool: pool, Parallelism: 4}},
		} {
			withSmallStreamBatches(t, tc.batch)
			got, err := MatchOpts(tr.Instance, p, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesOracle(t, name+"/"+tc.label, got, oracle)
			if first == nil {
				first = got
			}
			assertSameRelations(t, name+"/"+tc.label, got, first)
		}
	}
}

// TestStreamMatchEquivalenceRandomized fuzzes the engine against the
// oracle: random year thresholds vary the selectivity, random batch
// sizes vary the pipeline's chunking, and random budgets vary the
// fan-out — the tuple set must be the oracle's, and the rows identical
// to the serial default-batch run, throughout.
func TestStreamMatchEquivalenceRandomized(t *testing.T) {
	tr := planFixture(t)
	pool := exec.NewPool(4)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		year := 1995 + rng.Intn(20)
		p := buildPattern(t, tr, "Papers",
			opSelect(fmt.Sprintf("year > %d", year)),
			opAdd(tr, "Paper_Authors"),
			opAdd(tr, "Authors→Institutions"),
		)
		label := fmt.Sprintf("trial=%d year>%d", trial, year)
		withSmallStreamBatches(t, 0)
		want, err := MatchOpts(tr.Instance, p, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesOracle(t, label, want, oracleTuples(t, tr.Instance, p))
		withSmallStreamBatches(t, 1+rng.Intn(64))
		var opt ExecOptions
		if rng.Intn(2) == 0 {
			opt.Ctx, opt.Pool, opt.Parallelism = context.Background(), pool, 2+rng.Intn(4)
		}
		got, err := MatchOpts(tr.Instance, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRelations(t, label, got, want)
	}
}

// TestPrepareFromSourceEquivalence asserts the presentation folded off
// the engine's stream renders the oracle's enriched table cell for
// cell — full renders and windows — under budgets 1 and 4, and that the
// relation the fold splices is the one MatchOpts returns.
func TestPrepareFromSourceEquivalence(t *testing.T) {
	tr := planFixture(t)
	pool := exec.NewPool(4)
	withSmallStreamBatches(t, 11)
	for name, p := range map[string]*Pattern{
		"figure1": figure1PlanPattern(t, tr),
		"figure7": figure7PlanPattern(t, tr),
	} {
		oraclePr, want := oracleTable(t, tr.Instance, p)
		drained, err := MatchOpts(tr.Instance, p, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{1, 4} {
			var opt ExecOptions
			if budget > 1 {
				opt.Ctx, opt.Pool, opt.Parallelism = context.Background(), pool, budget
			}
			src, err := MatchSource(tr.Instance, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			pr, matched, err := PrepareFromSource(tr.Instance, p, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRelations(t, name+"/matched", matched, drained)
			if pr.NumRows() != oraclePr.NumRows() {
				t.Fatalf("%s: %d rows, want %d", name, pr.NumRows(), oraclePr.NumRows())
			}
			got, err := pr.Window(0, -1)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fmt.Sprintf("%s/budget=%d", name, budget), got, want)
			// Windows agree too (first page, middle page, clamped tail).
			for _, w := range [][2]int{{0, 5}, {3, 4}, {want.NumRows() - 2, 10}} {
				gw, err := pr.Window(w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				ww, err := oraclePr.Window(w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, fmt.Sprintf("%s/window=%v", name, w), gw, ww)
			}
		}
	}
}

// TestExecutorStreamingPrepareCached asserts the executor's prepare
// path: the compute leader folds the presentation off the stream and
// it renders the oracle's table, the cached relation holds the oracle's
// tuples, and a second prepare (cache hit, PrepareOpts over the cached
// relation) yields an identical presentation.
func TestExecutorStreamingPrepareCached(t *testing.T) {
	tr := planFixture(t)
	withSmallStreamBatches(t, 17)
	p := figure7PlanPattern(t, tr)
	_, want := oracleTable(t, tr.Instance, p)

	e := NewExecutor(tr.Instance)
	pr, err := e.PrepareWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pr.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "streamed-vs-oracle", got, want)

	// The cached relation is the match.
	rel, ok := e.Cache().Get(matchPrefix + Signature(p))
	if !ok {
		t.Fatal("streamed match not cached")
	}
	assertMatchesOracle(t, "cached", rel, oracleTuples(t, tr.Instance, p))

	// Cache hit: prepares from the cached relation, same output.
	if misses := e.Misses(); misses == 0 {
		t.Fatal("expected at least one miss")
	}
	pr2, err := e.PrepareWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := pr2.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "hit-vs-oracle", got2, want)
}

// TestExecutorStreamingMatchCached asserts MatchWithOpts caches the
// drained relation and serves hits without recomputation.
func TestExecutorStreamingMatchCached(t *testing.T) {
	tr := planFixture(t)
	withSmallStreamBatches(t, 9)
	p := figure1PlanPattern(t, tr)
	e := NewExecutor(tr.Instance)
	first, err := e.MatchWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.MatchWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("cache hit returned a different relation")
	}
	assertMatchesOracle(t, "cached-stream-match", first, oracleTuples(t, tr.Instance, p))
}

// TestMaxRowsGuard asserts the MaxRows cap fails oversized
// materializations with *graphrel.RowLimitError and admits results at
// or under the cap.
func TestMaxRowsGuard(t *testing.T) {
	tr := planFixture(t)
	withSmallStreamBatches(t, 9)
	p := buildPattern(t, tr, "Papers",
		opAdd(tr, "Paper_Authors"),
		opAdd(tr, "Authors→Institutions"),
	)
	full, err := MatchOpts(tr.Instance, p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 10 {
		t.Fatalf("fixture too small: %d match rows", full.Len())
	}
	_, err = MatchOpts(tr.Instance, p, ExecOptions{MaxRows: 5})
	var rle *graphrel.RowLimitError
	if !errors.As(err, &rle) || rle.Limit != 5 {
		t.Fatalf("err = %v, want RowLimitError{5}", err)
	}
	ok, err := MatchOpts(tr.Instance, p, ExecOptions{MaxRows: full.Len()})
	if err != nil {
		t.Fatalf("at-cap: %v", err)
	}
	assertSameRelations(t, "at-cap", ok, full)
	// The prepare fold enforces the cap too, and errors are never
	// cached (a later uncapped prepare succeeds).
	e := NewExecutor(tr.Instance)
	_, err = e.PrepareWithOpts(p, ExecOptions{MaxRows: 5})
	rle = nil
	if !errors.As(err, &rle) {
		t.Fatalf("capped prepare err = %v, want RowLimitError", err)
	}
	pr, err := e.PrepareWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.NumRows() == 0 {
		t.Error("uncapped prepare after capped failure returned no rows")
	}
}

// TestMaxRowsCapsTheResult is the -max-rows contract: the cap is on
// the result, never on an intermediate, so the same query at the same
// cap gets the same answer on every corpus size. Figure 7 on this
// fixture has 14 result rows behind a wider intermediate; the engine
// admits it at 14 and refuses it at 13, serial and pooled, match and
// prepare. With a spill policy the same cap is a trigger, not a
// failure: the capped prepare comes back disk-resident and renders the
// oracle's table.
func TestMaxRowsCapsTheResult(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	_, want := oracleTable(t, tr.Instance, p)
	oracle := oracleTuples(t, tr.Instance, p)
	widest := slices.Max(planIntermediates(t, tr.Instance, p))
	if len(oracle) != 14 || widest <= len(oracle) {
		t.Fatalf("fixture drifted: %d result rows, widest intermediate %d (want 14 < widest)", len(oracle), widest)
	}
	withSmallStreamBatches(t, 5)
	for label, opt := range map[string]ExecOptions{
		"serial": {},
		"pooled": {Ctx: context.Background(), Pool: exec.NewPool(4), Parallelism: 4},
	} {
		opt.MaxRows = 14
		got, err := MatchOpts(tr.Instance, p, opt)
		if err != nil {
			t.Fatalf("%s: match at the result's size: %v", label, err)
		}
		assertMatchesOracle(t, label, got, oracle)
		if _, err := NewExecutor(tr.Instance).PrepareWithOpts(p, opt); err != nil {
			t.Fatalf("%s: prepare at the result's size: %v", label, err)
		}

		opt.MaxRows = 13
		var rle *graphrel.RowLimitError
		if _, err := MatchOpts(tr.Instance, p, opt); !errors.As(err, &rle) || rle.Limit != 13 {
			t.Fatalf("%s: match err = %v, want RowLimitError{Limit: 13}", label, err)
		}
		rle = nil
		if _, err := NewExecutor(tr.Instance).PrepareWithOpts(p, opt); !errors.As(err, &rle) || rle.Limit != 13 {
			t.Fatalf("%s: prepare err = %v, want RowLimitError{Limit: 13}", label, err)
		}

		pol, metrics := testSpillPolicy(t, 8)
		opt.Spill = pol
		spilled, err := NewExecutor(tr.Instance).PrepareWithOpts(p, opt)
		if err != nil {
			t.Fatalf("%s: capped prepare with a spill policy: %v", label, err)
		}
		if metrics.Snapshot().Spills == 0 {
			t.Fatalf("%s: prepare over the cap with a policy stayed on the heap", label)
		}
		res, err := spilled.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, label+"/spilled", res, want)
		if err := spilled.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamingCancellation asserts a canceled context surfaces
// through the match's drain and the prepare fold.
func TestStreamingCancellation(t *testing.T) {
	tr := planFixture(t)
	withSmallStreamBatches(t, 9)
	p := figure7PlanPattern(t, tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := ExecOptions{Ctx: ctx, Pool: exec.NewPool(2), Parallelism: 4}
	if _, err := MatchOpts(tr.Instance, p, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("MatchOpts err = %v, want Canceled", err)
	}
	if _, err := NewExecutor(tr.Instance).PrepareWithOpts(p, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("PrepareWithOpts err = %v, want Canceled", err)
	}
}
