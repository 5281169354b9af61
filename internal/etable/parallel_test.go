package etable

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/graphrel"
	"repro/internal/value"
)

// TestParallelExecuteEquivalence asserts the full execution path under
// a live context returns the oracle's enriched table on the paper's
// Figure 1 and Figure 7 patterns — through the harness's uncached
// match and prepare, and through the cache's prepare plus full window.
// (Its name dates from the pooled arms it used to run; every execution
// is serial now.)
func TestParallelExecuteEquivalence(t *testing.T) {
	tr := planFixture(t)
	for name, p := range map[string]*Pattern{
		"figure1": figure1PlanPattern(t, tr),
		"figure7": figure7PlanPattern(t, tr),
	} {
		_, want := oracleTable(t, tr.Instance, p)
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			pr, _, err := prepareMiss(tr.Instance, p, ExecOptions{Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			got, err := pr.WindowColumns(ctx, 0, -1, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, name, got, want)
			if pr, err = NewCache(DefaultCacheEntries).Prepare(ctx, tr.Instance, p); err != nil {
				t.Fatal(err)
			}
			if got, err = pr.WindowColumns(ctx, 0, -1, nil); err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, name+"/cache", got, want)
		})
	}
}

func assertSameResults(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: rows %d vs %d", name, got.NumRows(), want.NumRows())
	}
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: columns %d vs %d", name, len(got.Columns), len(want.Columns))
	}
	for ri := range want.Rows {
		gr, wr := &got.Rows[ri], &want.Rows[ri]
		if gr.Node != wr.Node || gr.Label != wr.Label {
			t.Fatalf("%s: row %d: %v/%q vs %v/%q", name, ri, gr.Node, gr.Label, wr.Node, wr.Label)
		}
		for ci := range wr.Cells {
			gc, wc := &gr.Cells[ci], &wr.Cells[ci]
			if !value.Equal(gc.Value, wc.Value) && !(gc.Value.IsNull() && wc.Value.IsNull()) {
				t.Fatalf("%s: row %d cell %d value differs", name, ri, ci)
			}
			if len(gc.Refs) != len(wc.Refs) {
				t.Fatalf("%s: row %d cell %d: %d vs %d refs", name, ri, ci, len(gc.Refs), len(wc.Refs))
			}
			for k := range wc.Refs {
				if gc.Refs[k] != wc.Refs[k] {
					t.Fatalf("%s: row %d cell %d ref %d differs", name, ri, ci, k)
				}
			}
		}
	}
}

// TestExecuteOptsCancellation asserts a canceled request context stops
// execution with context.Canceled through both the harness's uncached
// match and the cache's prepare.
func TestExecuteOptsCancellation(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := ExecOptions{Ctx: ctx}
	if _, err := MatchOpts(tr.Instance, p, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("MatchOpts err = %v, want Canceled", err)
	}
	cache := NewCache(DefaultCacheEntries)
	if _, err := cache.Prepare(ctx, tr.Instance, p); !errors.Is(err, context.Canceled) {
		t.Errorf("Prepare err = %v, want Canceled", err)
	}
	// The cancellation error must not be cached: the same cache
	// succeeds once the context is live again.
	if _, err := cache.Prepare(context.Background(), tr.Instance, p); err != nil {
		t.Errorf("post-cancel prepare failed: %v", err)
	}
}

// TestCacheConcurrentPrepareSingleflight: a signature prepared
// concurrently by callers with and without a context must be matched
// exactly once — one miss for the match and one per base, every other
// lookup a hit — and every caller's presentation renders the same
// table.
func TestCacheConcurrentPrepareSingleflight(t *testing.T) {
	tr := planFixture(t)
	cache := NewCache(64)
	p := figure7PlanPattern(t, tr)

	const callers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	prs := make([]*Presentation, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var ctx context.Context
			if i%2 == 0 {
				ctx = context.Background()
			}
			prs[i], errs[i] = cache.Prepare(ctx, tr.Instance, p)
		}(i)
	}
	close(start)
	wg.Wait()
	var want *Result
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		got, err := prs[i].Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		}
		assertSameResults(t, fmt.Sprintf("caller %d", i), got, want)
	}
	if got, want := cache.Misses(), int64(1+len(p.Nodes)); got != want {
		t.Fatalf("%d cache misses, want %d (the match and each base once): singleflight failed to dedupe", got, want)
	}
	key := matchPrefix + Signature(p)
	rel, ok := cache.Get(key)
	if !ok {
		t.Fatal("match not cached")
	}
	// A second wave must be pure hits for the match key.
	preMisses := cache.Misses()
	for i := 0; i < 4; i++ {
		if _, err := cache.Prepare(context.Background(), tr.Instance, p); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Misses() != preMisses {
		t.Errorf("warm re-reads missed: %d → %d", preMisses, cache.Misses())
	}
	if again, _ := cache.Get(key); again != rel {
		t.Error("warm re-reads replaced the cached relation")
	}
}

// TestGetOrComputeLiveRetriesForeignCancellation simulates a
// singleflight waiter receiving the leader's cancellation error: with a
// live (or nil) context of its own, the lookup must retry and compute
// the value instead of surfacing another request's cancellation.
func TestGetOrComputeLiveRetriesForeignCancellation(t *testing.T) {
	rel := dummyRel()
	cache := NewCache(8)
	calls := 0
	got, err := getOrComputeLive(context.Background(), cache, "k", func() (*graphrel.Relation, error) {
		calls++
		if calls == 1 {
			return nil, context.Canceled // the canceled leader's error
		}
		return rel, nil
	})
	if err != nil || got != rel {
		t.Fatalf("got %v, %v; want the value after retry", got, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (one foreign failure + one retry)", calls)
	}
	// Our own cancellation is NOT retried.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls = 0
	_, err = getOrComputeLive(ctx, cache, "k2", func() (*graphrel.Relation, error) {
		calls++
		return nil, context.Canceled
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("own cancellation: err %v after %d calls, want Canceled after 1", err, calls)
	}
}
