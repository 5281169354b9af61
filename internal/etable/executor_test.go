package etable

import (
	"testing"

	"repro/internal/graphrel"
)

func TestExecutorMatchesPlainExecute(t *testing.T) {
	res := fixture(t)
	ex := NewExecutor(res.Instance)

	p, _ := Initiate(res.Schema, "Conferences")
	p, _ = Select(p, "acronym = 'SIGMOD'")
	p, _ = Add(res.Schema, p, "Papers→Conferences_rev")
	p, _ = Select(p, "year > 2005")

	plain, err := Execute(res.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := ex.Execute(p)
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
	ex := NewExecutor(res.Instance)
	p, _ := Initiate(res.Schema, "Papers")
	p, _ = Select(p, "year > 2005")

	if _, err := ex.Execute(p); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := ex.Misses()
	if ex.Hits() != 0 {
		t.Errorf("hits on cold cache = %d", ex.Hits())
	}
	// Same pattern again: full match cache hit.
	if _, err := ex.Execute(p); err != nil {
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
	if _, err := ex.Execute(p2); err != nil {
		t.Fatal(err)
	}
	shifted, err := Shift(p2, "Papers")
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := ex.Hits()
	if _, err := ex.Execute(shifted); err != nil {
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
	ex := NewExecutor(res.Instance)
	// Two different patterns sharing the filtered Conferences branch.
	a, _ := Initiate(res.Schema, "Conferences")
	a, _ = Select(a, "acronym = 'SIGMOD'")
	a, _ = Add(res.Schema, a, "Papers→Conferences_rev")
	if _, err := ex.Execute(a); err != nil {
		t.Fatal(err)
	}
	b, _ := Initiate(res.Schema, "Conferences")
	b, _ = Select(b, "acronym = 'SIGMOD'")
	b, _ = Add(res.Schema, b, "Papers→Conferences_rev")
	bb, _ := Select(b, "year > 2005")
	hitsBefore := ex.Hits()
	if _, err := ex.Execute(bb); err != nil {
		t.Fatal(err)
	}
	// The σ(Conferences) base relation is shared even though the full
	// pattern differs.
	if ex.Hits() <= hitsBefore {
		t.Error("shared filtered base relation not reused")
	}
}

// TestExecutorsShareCache is the cross-session reuse the server relies
// on: two executors over one Cache, the second execution of the same
// pattern hits even though it runs in a different "session".
func TestExecutorsShareCache(t *testing.T) {
	res := fixture(t)
	shared := NewCache(128)
	ex1 := NewSharedExecutor(res.Instance, shared)
	ex2 := NewSharedExecutor(res.Instance, shared)

	p, _ := Initiate(res.Schema, "Papers")
	p, _ = Select(p, "year > 2005")
	r1, err := ex1.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := shared.Misses()
	r2, err := ex2.Execute(p)
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
	// The matched relation behind both results is the same object.
	m1, _ := ex1.Match(p)
	m2, _ := ex2.Match(p)
	if m1 != m2 {
		t.Error("matched relation not shared between executors")
	}
}

func TestExecutorValidation(t *testing.T) {
	res := fixture(t)
	ex := NewExecutor(res.Instance)
	if _, err := ex.Execute(&Pattern{}); err == nil {
		t.Error("invalid pattern accepted")
	}
}

func TestExecutorCacheBounded(t *testing.T) {
	res := fixture(t)
	cache := NewCache(16) // one entry per shard
	ex := NewSharedExecutor(res.Instance, cache)
	for year := 2000; year < 2020; year++ {
		p, _ := Initiate(res.Schema, "Papers")
		p, _ = Select(p, "year > "+itoa(year))
		if _, err := ex.Execute(p); err != nil {
			t.Fatal(err)
		}
	}
	// 20 base + 20 match signatures went in; at most one entry survives
	// per shard.
	if got := cache.Len(); got > 16 {
		t.Errorf("cache unbounded: %d entries", got)
	}
}

// TestPresentationOutlivesRelation: the matched relation is an input
// of Prepare, not a possession of its product. With one cache entry per
// shard, unrelated traffic evicts the prepared pattern's relation, and
// both prepare forms — folded off the stream by the compute leader,
// prepared from the cached relation on a hit — still render the
// oracle's table, sorted views included.
func TestPresentationOutlivesRelation(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	oraclePr, want := oracleTable(t, tr.Instance, p)
	cache := NewCache(cacheShards)
	ex := NewSharedExecutor(tr.Instance, cache)
	folded, err := ex.PrepareWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	misses := ex.Misses()
	fromCache, err := ex.PrepareWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Misses() != misses {
		t.Fatal("second prepare recomputed the match instead of reading the cached relation")
	}

	key := matchPrefix + Signature(p)
	for i := 0; i < 10000; i++ {
		if _, ok := cache.Get(key); !ok {
			break
		}
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
