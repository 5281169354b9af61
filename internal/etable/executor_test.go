package etable

import (
	"context"
	"testing"

	"repro/internal/graphrel"
	"repro/internal/tgm"
)

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

func TestExecutorMatchesPlainExecute(t *testing.T) {
	res := fixture(t)
	ex := NewCache(DefaultCacheEntries)

	p, _ := Initiate(res.Schema, "Conferences")
	p, _ = Select(p, "acronym = 'SIGMOD'")
	p, _ = Add(res.Schema, p, "Papers→Conferences_rev")
	p, _ = Select(p, "year > 2005")

	plain, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := executeCached(ex, res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumRows() != cached.NumRows() {
		t.Fatalf("rows differ: %d vs %d", plain.NumRows(), cached.NumRows())
	}
	for i := range plain.Rows {
		if plain.Rows[i].Node != cached.Rows[i].Node {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestExecutorCacheHits(t *testing.T) {
	res := fixture(t)
	ex := NewCache(DefaultCacheEntries)
	p, _ := Initiate(res.Schema, "Papers")
	p, _ = Select(p, "year > 2005")

	if _, err := executeCached(ex, res.Instance, p); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := ex.Misses()
	if ex.Hits() != 0 {
		t.Errorf("hits on cold cache = %d", ex.Hits())
	}
	// Same pattern again: full match cache hit.
	if _, err := executeCached(ex, res.Instance, p); err != nil {
		t.Fatal(err)
	}
	if ex.Hits() == 0 || ex.Misses() != missesAfterFirst {
		t.Errorf("re-execution should hit: hits=%d misses=%d", ex.Hits(), ex.Misses())
	}

	// Shift changes the primary but not the match: signature unchanged.
	p2, err := Add(res.Schema, p, "Papers→Conferences")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := executeCached(ex, res.Instance, p2); err != nil {
		t.Fatal(err)
	}
	shifted, err := Shift(p2, "Papers")
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := ex.Hits()
	if _, err := executeCached(ex, res.Instance, shifted); err != nil {
		t.Fatal(err)
	}
	if ex.Hits() <= hitsBefore {
		t.Error("Shift re-execution should hit the match cache")
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

func TestExecutorBaseReuseAcrossPatterns(t *testing.T) {
	res := fixture(t)
	ex := NewCache(DefaultCacheEntries)
	// Two different patterns sharing the filtered Conferences branch.
	a, _ := Initiate(res.Schema, "Conferences")
	a, _ = Select(a, "acronym = 'SIGMOD'")
	a, _ = Add(res.Schema, a, "Papers→Conferences_rev")
	if _, err := executeCached(ex, res.Instance, a); err != nil {
		t.Fatal(err)
	}
	// The second pattern is built from Papers so that none of its
	// ancestors' matches is resident: it matches from the bases, not by
	// deriving from a's match.
	b, _ := Initiate(res.Schema, "Papers")
	b, _ = Select(b, "year > 2005")
	b, key, _ := AddBetween(res.Schema, b, "Papers", "Papers→Conferences")
	bb, _ := SelectNode(b, key, "acronym = 'SIGMOD'")
	hitsBefore := ex.Hits()
	if _, err := executeCached(ex, res.Instance, bb); err != nil {
		t.Fatal(err)
	}
	// The σ(Conferences) base relation is shared even though the full
	// pattern differs.
	if ex.Hits() <= hitsBefore {
		t.Error("shared filtered base relation not reused")
	}
}

// TestJoinlessMatchCachedOnce: a joinless pattern's selected base is
// its match, so a prepare on a fresh cache caches that one set once
// — under its match key — and the resident bytes count it once.
func TestJoinlessMatchCachedOnce(t *testing.T) {
	res := fixture(t)
	ex := NewCache(DefaultCacheEntries)
	p, _ := Initiate(res.Schema, "Papers")
	p, _ = Select(p, "year > 2005")
	if _, err := ex.Prepare(context.Background(), res.Instance, p); err != nil {
		t.Fatal(err)
	}
	rel, ok := ex.Get(matchPrefix + Signature(p))
	if !ok {
		t.Fatal("joinless match not cached")
	}
	if n, b := ex.Len(), ex.ResidentBytes(); n != 1 || b != rel.SizeBytes() {
		t.Fatalf("%d entries of %d bytes cached, want 1 of the match's %d", n, b, rel.SizeBytes())
	}
}

// TestExecutorDerivesFromAncestor: a miss whose ancestor's match is
// resident starts the ancestor's nodes from its reduced sets — narrowed
// by the added condition — instead of selecting them from their bases,
// and reduces to the oracle's projections and count.
func TestExecutorDerivesFromAncestor(t *testing.T) {
	res := fixture(t)
	ex := NewCache(DefaultCacheEntries)
	a, _ := Initiate(res.Schema, "Conferences")
	a, _ = Select(a, "acronym = 'SIGMOD'")
	a, _ = Add(res.Schema, a, "Papers→Conferences_rev")
	if _, err := executeCached(ex, res.Instance, a); err != nil {
		t.Fatal(err)
	}
	d, _ := Select(a, "year > 2005")
	d, _ = Add(res.Schema, d, "Paper_Authors")
	hits, misses := ex.Hits(), ex.Misses()
	got, err := executeCached(ex, res.Instance, d)
	if err != nil {
		t.Fatal(err)
	}
	// One miss for d's match and one for the new Authors base; no
	// lookup at all for the Conferences and Papers bases.
	if ex.Hits() != hits || ex.Misses() != misses+2 {
		t.Errorf("hits %d → %d, misses %d → %d; want no hit and two misses",
			hits, ex.Hits(), misses, ex.Misses())
	}
	if _, ok := ex.Get(basePrefix + nodeSignature(d.Node("Papers"))); ok {
		t.Error("derived match selected σ(Papers) from its base")
	}
	rel, ok := ex.Get(matchPrefix + Signature(d))
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

// TestExecutorsShareCache is the cross-session reuse the server relies
// on: of two prepares of one pattern through one Cache, the second
// hits even though it runs in a different "session".
func TestExecutorsShareCache(t *testing.T) {
	res := fixture(t)
	shared := NewCache(128)

	p, _ := Initiate(res.Schema, "Papers")
	p, _ = Select(p, "year > 2005")
	r1, err := executeCached(shared, res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := shared.Misses()
	r2, err := executeCached(shared, res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Misses() != missesAfterFirst {
		t.Errorf("second session recomputed: misses %d → %d", missesAfterFirst, shared.Misses())
	}
	if shared.Hits() == 0 {
		t.Error("second session did not hit the shared cache")
	}
	if r1.NumRows() != r2.NumRows() {
		t.Errorf("rows differ across sessions: %d vs %d", r1.NumRows(), r2.NumRows())
	}
	// The matched relation behind both results is the one cache entry.
	if _, ok := shared.Get(matchPrefix + Signature(p)); !ok {
		t.Error("matched relation not in the shared cache")
	}
}

func TestExecutorValidation(t *testing.T) {
	res := fixture(t)
	ex := NewCache(DefaultCacheEntries)
	if _, err := executeCached(ex, res.Instance, &Pattern{}); err == nil {
		t.Error("invalid pattern accepted")
	}
}

func TestExecutorCacheBounded(t *testing.T) {
	res := fixture(t)
	cache := NewCache(16)
	ex := cache
	for year := 2000; year < 2020; year++ {
		p, _ := Initiate(res.Schema, "Papers")
		p, _ = Select(p, "year > "+itoa(year))
		if _, err := executeCached(ex, res.Instance, p); err != nil {
			t.Fatal(err)
		}
	}
	// 20 base + 20 match signatures went in; exactly the capacity stays.
	if got := cache.Len(); got != 16 {
		t.Errorf("cache holds %d entries, want 16", got)
	}
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
	ex := cache
	folded, err := ex.Prepare(context.Background(), tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	misses := ex.Misses()
	fromCache, err := ex.Prepare(context.Background(), tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Misses() != misses {
		t.Fatal("second prepare recomputed the match instead of reading the cached relation")
	}

	key := matchPrefix + Signature(p)
	for i := 0; i < 16; i++ {
		if _, err := cache.GetOrCompute("filler-"+itoa(i), func() (*graphrel.Relation, error) { return dummyRel(), nil }); err != nil {
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

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSpilledExecutorBrowsable pins the cache's contract for a
// match of any size: a prepare renders the oracle's table, so does a
// second one (a cache hit), and only the reduced sets are cached.
func TestSpilledExecutorBrowsable(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	_, full := oracleTable(t, tr.Instance, p)
	if full.NumRows() < 4 {
		t.Fatalf("fixture too small: %d rows", full.NumRows())
	}
	e := NewCache(DefaultCacheEntries)
	for range 2 {
		pr, err := e.Prepare(context.Background(), tr.Instance, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pr.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "prepared", got, full)
	}
	if _, ok := e.Get(matchPrefix + Signature(p)); !ok {
		t.Fatal("the reduced match is not cached")
	}
}
