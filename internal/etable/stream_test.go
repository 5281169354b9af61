package etable

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// prepareMiss is Cache.Prepare's miss without a cache: the reduced
// match, prepared under the options' row cap.
func prepareMiss(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*Presentation, *graphrel.Relation, error) {
	t, err := treeOf(g, p)
	if err != nil {
		return nil, nil, err
	}
	red, err := matchPipeline(opt.Ctx, g, p, t, nil)
	if err != nil {
		return nil, nil, err
	}
	pr, err := prepareSets(opt.Ctx, g, p, t, red)
	return pr, red, err
}

// TestStreamMatchEquivalence asserts the engine's match holds the
// oracle's projections and tuple count on the paper's figure patterns,
// with a nil context and a live one.
func TestStreamMatchEquivalence(t *testing.T) {
	tr := planFixture(t)
	for name, p := range map[string]*Pattern{
		"figure1": figure1PlanPattern(t, tr),
		"figure7": figure7PlanPattern(t, tr),
	} {
		naive, err := MatchNaive(tr.Instance, p)
		if err != nil {
			t.Fatal(err)
		}
		for label, opt := range map[string]ExecOptions{"nil_ctx": {}, "live_ctx": {Ctx: context.Background()}} {
			got, err := MatchOpts(tr.Instance, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertReducedMatches(t, name+"/"+label, p, got, naive)
		}
	}
}

// TestStreamMatchEquivalenceRandomized fuzzes the engine against the
// oracle: random year thresholds vary the selectivity — the sets and
// the tuple count must be the oracle's throughout.
func TestStreamMatchEquivalenceRandomized(t *testing.T) {
	tr := planFixture(t)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		year := 1995 + rng.Intn(20)
		p := buildPattern(t, tr, "Papers",
			opSelect(fmt.Sprintf("year > %d", year)),
			opAdd(tr, "Paper_Authors"),
			opAdd(tr, "Authors→Institutions"),
		)
		label := fmt.Sprintf("trial=%d year>%d", trial, year)
		got, err := MatchOpts(tr.Instance, p, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := MatchNaive(tr.Instance, p)
		if err != nil {
			t.Fatal(err)
		}
		assertReducedMatches(t, label, p, got, naive)
	}
}

// TestPrepareFromSetsEquivalence asserts the presentation prepared
// from the reduced match renders the oracle's enriched table cell for
// cell — full renders and windows — and that the reduced sets are the
// oracle's projections.
func TestPrepareFromSetsEquivalence(t *testing.T) {
	tr := planFixture(t)
	for name, p := range map[string]*Pattern{
		"figure1": figure1PlanPattern(t, tr),
		"figure7": figure7PlanPattern(t, tr),
	} {
		oraclePr, want := oracleTable(t, tr.Instance, p)
		naive, err := MatchNaive(tr.Instance, p)
		if err != nil {
			t.Fatal(err)
		}
		pr, red, err := prepareMiss(tr.Instance, p, ExecOptions{Ctx: context.Background()})
		if err != nil {
			t.Fatal(err)
		}
		assertReducedMatches(t, name+"/reduced", p, red, naive)
		if pr.NumRows() != oraclePr.NumRows() {
			t.Fatalf("%s: %d rows, want %d", name, pr.NumRows(), oraclePr.NumRows())
		}
		got, err := pr.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, name, got, want)
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

// TestExecutorStreamingPrepareCached asserts the cache's prepare
// path: the compute leader's presentation renders the oracle's table,
// the cached sets are the oracle's projections, and a second prepare
// (a cache hit, prepared from the cached sets) yields an identical
// presentation.
func TestExecutorStreamingPrepareCached(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	_, want := oracleTable(t, tr.Instance, p)

	e := NewCache(DefaultCacheEntries)
	pr, err := e.Prepare(context.Background(), tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pr.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "miss-vs-oracle", got, want)

	// The cached sets are the match's projections.
	red, ok := e.Get(matchPrefix + Signature(p))
	if !ok {
		t.Fatal("reduced match not cached")
	}
	naive, err := MatchNaive(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	assertReducedMatches(t, "cached", p, red, naive)

	// Cache hit: prepares from the cached sets, same output.
	if misses := e.Misses(); misses == 0 {
		t.Fatal("expected at least one miss")
	}
	pr2, err := e.Prepare(context.Background(), tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := pr2.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "hit-vs-oracle", got2, want)
}

// TestExecutorStreamingMatchCached asserts the cache keeps the
// reduced match and serves later prepares of the signature from it
// without recomputation.
func TestExecutorStreamingMatchCached(t *testing.T) {
	tr := planFixture(t)
	p := figure1PlanPattern(t, tr)
	e := NewCache(DefaultCacheEntries)
	if _, err := e.Prepare(context.Background(), tr.Instance, p); err != nil {
		t.Fatal(err)
	}
	key := matchPrefix + Signature(p)
	first, ok := e.Get(key)
	if !ok {
		t.Fatal("reduced match not cached")
	}
	misses := e.Misses()
	if _, err := e.Prepare(context.Background(), tr.Instance, p); err != nil {
		t.Fatal(err)
	}
	if e.Misses() != misses {
		t.Error("second prepare recomputed the match")
	}
	if second, _ := e.Get(key); second != first {
		t.Error("cache hit returned a different value")
	}
	naive, err := MatchNaive(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	assertReducedMatches(t, "cached-match", p, first, naive)
}

// TestMaxRowsGuard: no row cap is the engine's. A match and the
// prepare of the same pattern are not refused for their size: the
// widest read a request may make is the session's window guard
// (session.SetMaxRows).
func TestMaxRowsGuard(t *testing.T) {
	tr := planFixture(t)
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
	pr, err := NewCache(DefaultCacheEntries).Prepare(context.Background(), tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if pr.NumRows() == 0 {
		t.Error("prepare returned no rows")
	}
}

// TestStreamingCancellation asserts a canceled context surfaces
// through the match and the prepare.
func TestStreamingCancellation(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := ExecOptions{Ctx: ctx}
	if _, err := MatchOpts(tr.Instance, p, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("MatchOpts err = %v, want Canceled", err)
	}
	if _, err := NewCache(DefaultCacheEntries).Prepare(opt.Ctx, tr.Instance, p); !errors.Is(err, context.Canceled) {
		t.Errorf("Prepare err = %v, want Canceled", err)
	}
}
