package etable

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/tgm"
	"repro/internal/translate"
)

// Derives reports whether the engine would match p from a resident
// ancestor in c rather than from the bases (for the external oracle
// test in derive_oracle_test.go).
func Derives(p *Pattern, c *Cache) bool { return deriveFrom(p, c) != nil }

// CountVector returns the count vector a sort by participating column
// name built on pr (nil before the first such sort).
func CountVector(pr *Presentation, name string) []int32 {
	for _, pc := range pr.parts {
		if pr.columns[pc.col].Name == name {
			return pc.counts.v
		}
	}
	return nil
}

// FoldTable renders p's table from a matched relation with the fold
// oracle (foldOracle), sharing no kernel with the engine's prepare.
func FoldTable(g *tgm.InstanceGraph, p *Pattern, matched *naiveMatch) (*Result, error) {
	return foldOracle(g, p, matched)
}

// SameMatch reports how rel, p's match as MatchOpts returns it, differs
// from the oracle's m(Q) naive (sameMatch), or nil.
func SameMatch(p *Pattern, rel *graphrel.Relation, naive *naiveMatch) error {
	return sameMatch(p, rel, naive)
}

func TestExtraConjuncts(t *testing.T) {
	parse := func(src string) expr.Expr {
		e, err := expr.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b, c := parse("year > 2005"), parse("year <= 2010"), parse("page_start < 500")
	for _, tc := range []struct {
		name       string
		cond, base expr.Expr
		want       string // "" with ok: nothing to add
		ok         bool
	}{
		{"unchanged", a, a, "", true},
		{"no base", expr.And{Left: a, Right: b}, nil, "(year > 2005 AND year <= 2010)", true},
		{"both nil", nil, nil, "", true},
		{"one conjunct", expr.And{Left: a, Right: b}, a, "year <= 2010", true},
		{"two conjuncts", expr.And{Left: expr.And{Left: a, Right: b}, Right: c}, a, "(year <= 2010 AND page_start < 500)", true},
		{"replaced", b, a, "", false},
		{"removed", nil, a, "", false},
		{"base on the right", expr.And{Left: b, Right: a}, a, "", false},
	} {
		got, ok := extraConjuncts(tc.cond, tc.base)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		gotStr := ""
		if got != nil {
			gotStr = got.String()
		}
		if gotStr != tc.want {
			t.Errorf("%s: extra = %q, want %q", tc.name, gotStr, tc.want)
		}
	}
}

// TestForgedDerivationLinksFallBack: a derivation link is a hint. A
// resident pattern that is not a structural sub-pattern — unrelated, a
// replaced or removed condition, a missing edge — must not be derived
// from, and the match from the bases must equal the oracle's.
func TestForgedDerivationLinksFallBack(t *testing.T) {
	tr := planFixture(t)
	ex := NewCache(DefaultCacheEntries)
	resident := func(p *Pattern) *Pattern {
		t.Helper()
		if _, err := ex.Prepare(context.Background(), tr.Instance, p); err != nil {
			t.Fatal(err)
		}
		if _, ok := ex.Get(matchPrefix + Signature(p)); !ok {
			t.Fatalf("%s: match not resident", p)
		}
		return p
	}
	sigmodPapers := func() *Pattern {
		return buildPattern(t, tr, "Conferences", opSelect("acronym = 'SIGMOD'"), opAdd(tr, "Papers→Conferences_rev"))
	}
	recentPapers := resident(buildPattern(t, tr, "Papers", opSelect("year > 2005"), opAdd(tr, "Papers→Conferences")))
	for _, tc := range []struct {
		name   string
		p, anc *Pattern
	}{
		{"unrelated", sigmodPapers(),
			resident(buildPattern(t, tr, "Authors", opSelect("name like '%a%'"), opAdd(tr, "Authors→Institutions")))},
		{"replaced condition",
			buildPattern(t, tr, "Papers", opSelect("year <= 2010"), opAdd(tr, "Papers→Conferences")), recentPapers},
		{"removed condition",
			buildPattern(t, tr, "Papers", opAdd(tr, "Papers→Conferences")), recentPapers},
		{"missing edge",
			// The same two nodes, joined through the edge's other
			// orientation: a's edge is not among p's.
			buildPattern(t, tr, "Conferences", opSelect("acronym = 'SIGMOD'"), opAdd(tr, "Papers→Conferences_rev"),
				opSelect("year > 2005"), opShift("Conferences")),
			resident(buildPattern(t, tr, "Papers", opSelect("year > 2005"), opAdd(tr, "Papers→Conferences"),
				opSelect("acronym = 'SIGMOD'")))},
	} {
		p := tc.p.Clone()
		p.from = tc.anc
		if deriveFrom(p, ex) != nil {
			t.Errorf("%s: derived from a forged link", tc.name)
			continue
		}
		pr, err := ex.Prepare(context.Background(), tr.Instance, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := pr.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		_, want := oracleTable(t, tr.Instance, p)
		assertSameResults(t, tc.name, got, want)
	}

	// The positive control: the same check admits a true ancestor,
	// reached past a link with p's own signature (a Shift).
	anc := resident(sigmodPapers())
	p, err := Select(anc, "year > 2005")
	if err != nil {
		t.Fatal(err)
	}
	if p, err = Shift(p, "Conferences"); err != nil {
		t.Fatal(err)
	}
	d := deriveFrom(p, ex)
	if d == nil {
		t.Fatal("a resident true ancestor was not derived from")
	}
	if want := map[string]string{"Conferences": "", "Papers": "year > 2005"}; !reflect.DeepEqual(residualStrings(d), want) {
		t.Errorf("residual = %v, want %v", residualStrings(d), want)
	}
}

func residualStrings(d *derived) map[string]string {
	out := make(map[string]string, len(d.residual))
	for k, e := range d.residual {
		out[k] = ""
		if e != nil {
			out[k] = e.String()
		}
	}
	return out
}

// TestDerivedMatchServedLikeFromBases: a derived match is served
// exactly like one from the bases — also when the ancestor covers every
// node and the pattern only adds a condition (no join step is left, but
// the pattern has edges, so its match is still reduced).
func TestDerivedMatchServedLikeFromBases(t *testing.T) {
	tr := planFixture(t)
	full := figure7PlanPattern(t, tr)
	chain := []*Pattern{}
	for a := full; a != nil; a = a.from {
		chain = append(chain, a)
	}
	// chain[3] is Conferences{SIGMOD} → Papers{year > 2005} → Authors.
	anc := chain[3]
	if len(anc.Nodes) != 3 || len(anc.Edges) != 2 {
		t.Fatalf("fixture drifted: ancestor %s", anc)
	}
	selectOnly, err := SelectNode(anc, "Authors", "name like '%a%'")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pattern{full, selectOnly} {
		_, want := oracleTable(t, tr.Instance, p)
		if want.NumRows() < 3 {
			t.Fatalf("fixture too small: %d rows", want.NumRows())
		}
		ex := NewCache(DefaultCacheEntries)
		if _, err := ex.Prepare(context.Background(), tr.Instance, anc); err != nil {
			t.Fatal(err)
		}
		if deriveFrom(p, ex) == nil {
			t.Fatalf("%s: not derived", p)
		}
		pr, err := ex.Prepare(context.Background(), tr.Instance, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		got, err := pr.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, p.String(), got, want)
	}
}

// TestJoinlessSelectNeverDerives: a Select after Open has no
// edges, so it never derives and its match is its selected base,
// rendered as the oracle's table.
func TestJoinlessSelectNeverDerives(t *testing.T) {
	tr := planFixture(t)
	cache := NewCache(DefaultCacheEntries)
	open := buildPattern(t, tr, "Papers")
	if _, err := cache.Prepare(context.Background(), tr.Instance, open); err != nil {
		t.Fatal(err)
	}
	p, err := Select(open, "year > 2005")
	if err != nil {
		t.Fatal(err)
	}
	if deriveFrom(p, cache) != nil {
		t.Fatal("a pattern without edges derived")
	}
	got, err := executeCached(cache, tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	_, want := oracleTable(t, tr.Instance, p)
	if got.NumRows() < 3 {
		t.Fatalf("fixture too small: %d rows", got.NumRows())
	}
	assertSameResults(t, "joinless", got, want)
}

// BenchmarkDerivedMatch times one match miss of a three-node pivot —
// Papers{page_start} → Authors{name} → Institutions, cold_explore's
// shape — prepared into its presentation, two ways over the same warm
// cache (every base resident): from_bases reduces all three selected
// bases; derived starts Papers and Authors from the resident two-node
// match's reduced sets. pivot_hit is the Shift after it: a hit that
// prepares the cached sets under another primary.
func BenchmarkDerivedMatch(b *testing.B) {
	db, err := dataset.Generate(dataset.Config{Papers: 6000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	anc := buildPattern(b, tr, "Papers", opSelect("page_start >= 300"), opAdd(tr, "Paper_Authors"), opSelect("name like '%a%'"))
	p, err := Add(tr.Schema, anc, "Authors→Institutions")
	if err != nil {
		b.Fatal(err)
	}
	shifted, err := Shift(p, "Papers")
	if err != nil {
		b.Fatal(err)
	}
	unlinked := p.Clone()
	unlinked.from = nil
	ex := NewCache(DefaultCacheEntries)
	for _, warm := range []*Pattern{anc, unlinked} {
		if _, err := ex.Prepare(context.Background(), tr.Instance, warm); err != nil {
			b.Fatal(err)
		}
	}
	for _, arm := range []struct {
		name string
		p    *Pattern
	}{{"from_bases", unlinked}, {"derived", p}} {
		b.Run(arm.name, func(b *testing.B) {
			if derives := deriveFrom(arm.p, ex) != nil; derives != (arm.p == p) {
				b.Fatalf("derives = %v", derives)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := treeOf(tr.Instance, arm.p)
				if err != nil {
					b.Fatal(err)
				}
				red, err := matchPipeline(context.Background(), tr.Instance, arm.p, t, ex)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := prepareSets(context.Background(), tr.Instance, arm.p, t, red); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("pivot_hit", func(b *testing.B) {
		misses := ex.Misses()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Prepare(context.Background(), tr.Instance, shifted); err != nil {
				b.Fatal(err)
			}
		}
		if ex.Misses() != misses {
			b.Fatal("the Shift missed the cache")
		}
	})
}
