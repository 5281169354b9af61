package etable

import (
	"repro/internal/expr"
	"repro/internal/graphrel"
)

// Derivation: the operators of §5.3 are pattern deltas — Select
// conjoins a condition, Add joins one node — so a pattern's match is
// its ancestor's match narrowed and extended by the delta. When the
// ancestor's reduced sets are resident in the cache, a miss starts
// each ancestor node from its reduced set, filtered by the conjuncts
// it lacks, instead of re-selecting its base: the reuse of
// intermediate results §9 lists as future work (2). Every tuple of the
// pattern's match restricted to the ancestor's keys is a tuple of the
// ancestor's match, so those sets hold every node the reduction keeps.

// maxDeriveLinks bounds the walk up a pattern's derivation links.
const maxDeriveLinks = 8

// derived is a resident ancestor a pattern can be matched from: its
// reduced match, and per ancestor key the conjuncts the pattern adds
// to that node's condition (nil when the condition is unchanged).
type derived struct {
	red      *graphrel.Relation
	residual map[string]expr.Expr
}

// deriveFrom returns the resident ancestor p's match can be derived
// from, or nil to match from the bases. It walks p's derivation links
// for at most maxDeriveLinks, skipping links with p's own signature (a
// Shift shares the match p just missed), and takes the first ancestor
// whose match the cache holds — a lookup that loads and counts nothing
// (Cache.Get). That ancestor must be a structural sub-pattern of p
// (subPattern): the link is a hint, never trusted unchecked. A pattern
// without edges never derives: its match is its selected base.
func deriveFrom(p *Pattern, cache *Cache) *derived {
	if cache == nil || len(p.Edges) == 0 {
		return nil
	}
	sig := Signature(p)
	a := p.from
	for i := 0; a != nil && i < maxDeriveLinks; i, a = i+1, a.from {
		s := Signature(a)
		if s == sig {
			continue
		}
		red, ok := cache.Get(matchPrefix + s)
		if !ok {
			continue
		}
		residual, ok := subPattern(a, p)
		if !ok {
			return nil
		}
		return &derived{red: red, residual: residual}
	}
	return nil
}

// subPattern reports whether every tuple of p's match restricted to
// a's keys is a tuple of a's match — a has no node p lacks, each of
// its nodes has p's type and a condition p's conjoins to, and each of
// its edges is p's — and returns, per key of a, the conjuncts p adds.
func subPattern(a, p *Pattern) (residual map[string]expr.Expr, ok bool) {
	if len(a.Nodes) == 0 || len(a.Nodes) > len(p.Nodes) {
		return nil, false
	}
	residual = make(map[string]expr.Expr, len(a.Nodes))
	for i := range a.Nodes {
		an := &a.Nodes[i]
		pn := p.Node(an.Key)
		if pn == nil || pn.Type != an.Type {
			return nil, false
		}
		extra, ok := extraConjuncts(pn.Cond, an.Cond)
		if !ok {
			return nil, false
		}
		residual[an.Key] = extra
	}
	for _, ae := range a.Edges {
		found := false
		for _, pe := range p.Edges {
			if pe == ae {
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return residual, true
}

// extraConjuncts returns what cond conjoins to base: cond is base, or
// And(base, e₁), And(And(base, e₁), e₂), … — the shape Select and
// SelectNode build — and the result is the conjunction of the eᵢ (nil
// when cond is base). Conditions compare by their canonical rendering,
// the form Signature keys on. Any other shape (a replaced or removed
// condition) is not derivable.
func extraConjuncts(cond, base expr.Expr) (expr.Expr, bool) {
	if base == nil {
		return cond, true
	}
	want := base.String()
	var extra expr.Expr
	for cur := cond; cur != nil; {
		if cur.String() == want {
			return extra, true
		}
		and, ok := cur.(expr.And)
		if !ok {
			return nil, false
		}
		if extra == nil {
			extra = and.Right
		} else {
			extra = expr.And{Left: and.Right, Right: extra}
		}
		cur = and.Left
	}
	return nil, false
}
