package etable

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/graphrel"
	"repro/internal/tgm"
	"repro/internal/value"
)

// dummyRel returns a distinct non-nil cache value for cache tests;
// the cache never inspects the value.
func dummyRel() *graphrel.Relation { return &graphrel.Relation{} }

// executeCached is the cache's full render — the prepared
// presentation's all-rows window, which is what the server serves for
// an unpaged read.
func executeCached(c *Cache, g *tgm.InstanceGraph, p *Pattern) (*Result, error) {
	pr, err := c.Prepare(context.Background(), g, p)
	if err != nil {
		return nil, err
	}
	return pr.Window(0, -1)
}

// TestPrepareHitsAndReuse pins what the shared Cache saves a prepare:
// a second prepare of a pattern — another session's, or one after a
// Shift, which keeps the signature — hits the match and renders the
// same table; a pattern built another way hits the selected base it
// shares; an invalid pattern is refused; and a cache holds exactly its
// capacity.
func TestPrepareHitsAndReuse(t *testing.T) {
	res := fixture(t)
	cache := NewCache(DefaultCacheEntries)
	papers, _ := Initiate(res.Schema, "Papers")
	p, _ := Select(papers, "year > 2005")
	first, err := executeCached(cache, res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 0 {
		t.Errorf("hits on a cold cache = %d", cache.Hits())
	}
	misses := cache.Misses()
	again, err := executeCached(cache, res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Hits() == 0 || cache.Misses() != misses || again.NumRows() != first.NumRows() {
		t.Errorf("second prepare: %d hits, misses %d → %d, %d rows vs %d",
			cache.Hits(), misses, cache.Misses(), again.NumRows(), first.NumRows())
	}
	p2, err := Add(res.Schema, p, "Papers→Conferences")
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := Shift(p2, "Papers")
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range []*Pattern{p2, shifted} {
		hits := cache.Hits()
		if _, err := executeCached(cache, res.Instance, q); err != nil {
			t.Fatal(err)
		}
		if i == 1 && cache.Hits() <= hits {
			t.Error("Shift re-execution should hit the match cache")
		}
	}
	if _, err := executeCached(cache, res.Instance, &Pattern{}); err == nil {
		t.Error("invalid pattern accepted")
	}

	// Two patterns sharing the filtered Conferences branch. The second
	// is built from Papers, so none of its ancestors' matches is
	// resident: it matches from the bases, and σ(Conferences) hits.
	shared := NewCache(DefaultCacheEntries)
	a, _ := Initiate(res.Schema, "Conferences")
	a, _ = Select(a, "acronym = 'SIGMOD'")
	a, _ = Add(res.Schema, a, "Papers→Conferences_rev")
	b, key, _ := AddBetween(res.Schema, p, "Papers", "Papers→Conferences")
	b, _ = SelectNode(b, key, "acronym = 'SIGMOD'")
	for i, q := range []*Pattern{a, b} {
		hits := shared.Hits()
		if _, err := executeCached(shared, res.Instance, q); err != nil {
			t.Fatal(err)
		}
		if i == 1 && shared.Hits() <= hits {
			t.Error("shared filtered base relation not reused")
		}
	}

	bounded := NewCache(16)
	for year := 2000; year < 2020; year++ {
		q, _ := Select(papers, "year > "+strconv.Itoa(year))
		if _, err := executeCached(bounded, res.Instance, q); err != nil {
			t.Fatal(err)
		}
	}
	if got := bounded.Len(); got != 16 {
		t.Errorf("cache holds %d entries, want 16", got)
	}
}

func TestSignatureProperties(t *testing.T) {
	res := fixture(t)
	p1, _ := Initiate(res.Schema, "Papers")
	p1, _ = Add(res.Schema, p1, "Papers→Conferences")
	p2, _ := Shift(p1, "Papers")
	if Signature(p1) != Signature(p2) {
		t.Error("Shift must not change the signature")
	}
	p3, _ := Select(p2, "year > 2005")
	if Signature(p2) == Signature(p3) {
		t.Error("Select must change the signature")
	}
	q, _ := Initiate(res.Schema, "Papers")
	if Signature(p1) == Signature(q) {
		t.Error("different patterns share a signature")
	}
}

// TestJoinlessMatchCachedOnce: a joinless pattern's selected base is
// its match, so a prepare on a fresh cache caches that one set once
// — under its match key — and the resident bytes count it once.
func TestJoinlessMatchCachedOnce(t *testing.T) {
	res := fixture(t)
	cache := NewCache(DefaultCacheEntries)
	p, _ := Initiate(res.Schema, "Papers")
	p, _ = Select(p, "year > 2005")
	if _, err := cache.Prepare(context.Background(), res.Instance, p); err != nil {
		t.Fatal(err)
	}
	rel, ok := cache.Get(matchPrefix + Signature(p))
	if !ok {
		t.Fatal("joinless match not cached")
	}
	if n, b := cache.Len(), cache.ResidentBytes(); n != 1 || b != rel.SizeBytes() {
		t.Fatalf("%d entries of %d bytes cached, want 1 of the match's %d", n, b, rel.SizeBytes())
	}
}

// TestMissDerivesFromAncestor: a miss whose ancestor's match is
// resident starts the ancestor's nodes from its reduced sets — narrowed
// by the added condition — instead of selecting them from their bases,
// and reduces to the oracle's projections and count.
func TestMissDerivesFromAncestor(t *testing.T) {
	res := fixture(t)
	cache := NewCache(DefaultCacheEntries)
	a, _ := Initiate(res.Schema, "Conferences")
	a, _ = Select(a, "acronym = 'SIGMOD'")
	a, _ = Add(res.Schema, a, "Papers→Conferences_rev")
	if _, err := executeCached(cache, res.Instance, a); err != nil {
		t.Fatal(err)
	}
	d, _ := Select(a, "year > 2005")
	d, _ = Add(res.Schema, d, "Paper_Authors")
	hits, misses := cache.Hits(), cache.Misses()
	got, err := executeCached(cache, res.Instance, d)
	if err != nil {
		t.Fatal(err)
	}
	// One miss for d's match and one for the new Authors base; no
	// lookup at all for the Conferences and Papers bases.
	if cache.Hits() != hits || cache.Misses() != misses+2 {
		t.Errorf("hits %d → %d, misses %d → %d; want no hit and two misses",
			hits, cache.Hits(), misses, cache.Misses())
	}
	if _, ok := cache.Get(basePrefix + nodeSignature(d.Node("Papers"))); ok {
		t.Error("derived match selected σ(Papers) from its base")
	}
	rel, ok := cache.Get(matchPrefix + Signature(d))
	if !ok {
		t.Fatal("derived match not cached")
	}
	naive, err := MatchNaive(res.Instance, d)
	if err != nil {
		t.Fatal(err)
	}
	assertReducedMatches(t, "derived", d, rel, naive)
	_, want := oracleTable(t, res.Instance, d)
	assertSameResults(t, "derived", got, want)
}

// TestPresentationOutlivesRelation: the reduced match is an input of
// the prepare, not a possession of its product. In a small cache,
// unrelated traffic evicts the prepared pattern's sets, and both
// prepares — the compute leader's and a hit's — still render the
// oracle's table, sorted views included.
func TestPresentationOutlivesRelation(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	oraclePr, want := oracleTable(t, tr.Instance, p)
	cache := NewCache(16)
	folded, err := cache.Prepare(context.Background(), tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	misses := cache.Misses()
	fromCache, err := cache.Prepare(context.Background(), tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != misses {
		t.Fatal("second prepare recomputed the match instead of reading the cached relation")
	}

	key := matchPrefix + Signature(p)
	for i := 0; i < 16; i++ {
		if _, err := cache.GetOrCompute("filler-"+strconv.Itoa(i), func() (*graphrel.Relation, error) { return dummyRel(), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("flood did not evict the matched relation")
	}

	specs := []SortSpec{{Attr: want.Columns[0].Attr, Desc: true}}
	for _, c := range want.Columns {
		if c.Kind == ColParticipating {
			specs = append(specs, SortSpec{Column: c.Name, Desc: true})
			break
		}
	}
	for name, pr := range map[string]*Presentation{"folded": folded, "from-cache": fromCache} {
		got, err := pr.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, name, got, want)
		for _, spec := range specs {
			gv, err := pr.SortedView(spec)
			if err != nil {
				t.Fatal(err)
			}
			wv, err := oraclePr.SortedView(spec)
			if err != nil {
				t.Fatal(err)
			}
			gw, err := gv.Window(1, 5)
			if err != nil {
				t.Fatal(err)
			}
			ww, err := wv.Window(1, 5)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, name+"/sorted", gw, ww)
		}
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

// TestMatchAndPrepareCancellation asserts a canceled request context stops
// execution with context.Canceled through both the harness's uncached
// match and the cache's prepare.
func TestMatchAndPrepareCancellation(t *testing.T) {
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

// TestCacheConcurrentPrepareSingleflight: a signature prepared and
// rendered concurrently by callers with and without a context must be
// matched exactly once — one miss for the match and one per base, every
// other lookup a hit — and every caller's presentation renders the same
// table; with -race this checks the sharing of cached relations end to
// end.
func TestCacheConcurrentPrepareSingleflight(t *testing.T) {
	tr := planFixture(t)
	cache := NewCache(64)
	p := figure7PlanPattern(t, tr)

	const callers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]*Result, callers)
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
			var pr *Presentation
			if pr, errs[i] = cache.Prepare(ctx, tr.Instance, p); errs[i] == nil {
				results[i], errs[i] = pr.Window(0, -1)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		assertSameResults(t, fmt.Sprintf("caller %d", i), results[i], results[0])
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
