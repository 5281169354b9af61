package etable

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graphrel"
)

// TestPrepareFromSetsEquivalence runs the paper's Figure 1 and Figure 7
// patterns every way the engine runs one and holds each to the oracles:
// MatchOpts, under a nil and a live context, holds MatchNaive's
// projections and tuple count; the presentation over it, Execute, and
// one cache's miss and hit render the fold oracle's table cell for
// cell, full renders and windows alike. The hit is served from the
// cached reduced sets, which are the oracle's projections.
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
		if naive.Len() == 0 {
			t.Fatalf("%s: empty match", name)
		}
		var red *graphrel.Relation
		for label, ctx := range map[string]context.Context{"nil_ctx": nil, "live_ctx": context.Background()} {
			red, err = MatchOpts(tr.Instance, p, ExecOptions{Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			assertReducedMatches(t, name+"/"+label, p, red, naive)
		}
		pr, err := PrepareOpts(tr.Instance, p, red, ExecOptions{Ctx: context.Background()})
		if err != nil {
			t.Fatal(err)
		}
		if pr.NumRows() != oraclePr.NumRows() {
			t.Fatalf("%s: %d rows, want %d", name, pr.NumRows(), oraclePr.NumRows())
		}
		// Windows agree too (full render, first page, middle page,
		// clamped tail).
		for _, w := range [][2]int{{0, -1}, {0, 5}, {3, 4}, {want.NumRows() - 2, 10}} {
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
		got, err := Execute(tr.Instance, p)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, name+"/Execute", got, want)

		cache := NewCache(DefaultCacheEntries)
		key := matchPrefix + Signature(p)
		var cached *graphrel.Relation
		for _, arm := range []string{"miss", "hit"} {
			misses := cache.Misses()
			if got, err = executeCached(cache, tr.Instance, p); err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, name+"/cache "+arm, got, want)
			rel, ok := cache.Get(key)
			switch {
			case !ok:
				t.Fatalf("%s: reduced match not cached", name)
			case arm == "miss":
				cached = rel
				assertReducedMatches(t, name+"/cached", p, rel, naive)
			case cache.Misses() != misses || rel != cached:
				t.Fatalf("%s: the second prepare recomputed the match", name)
			}
		}
	}
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
