package etable

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// The match engine (the package doc's "Execution"): a miss computes a
// pattern's reduced node sets (matchPipeline), held with the pattern's
// tree as one graphrel.Relation; no tuple of m(Q) is stored.

// patternTree is a pattern rooted at its primary node: keys and nodes
// in tree order (the primary first, every parent before its children),
// and per node its place in the tree: the edge to its parent, both
// ways.
type patternTree struct {
	keys  []string
	nodes []*PatternNode
	edges []graphrel.TreeEdge
}

// treeOf roots p at its primary node. Edges are taken in declaration
// order as they become connected, oriented as orientEdge orients a
// join. It loads nothing: a kernel ensures the direction it walks, so a
// deferred load's failure is that kernel's typed error rather than "no
// neighbors", and a direction no kernel picks stays unloaded.
func treeOf(g *tgm.InstanceGraph, p *Pattern) (*patternTree, error) {
	prim := p.PrimaryNode()
	if prim == nil {
		return nil, fmt.Errorf("etable: pattern has no primary node")
	}
	n := len(p.Nodes)
	t := &patternTree{keys: make([]string, 1, n), nodes: make([]*PatternNode, 1, n), edges: make([]graphrel.TreeEdge, 1, n)}
	t.keys[0], t.nodes[0] = prim.Key, prim
	joined := func(key string) bool { return slices.Contains(t.keys, key) }
	for len(t.keys) < n {
		progressed := false
		for _, e := range p.Edges {
			anchor, key, down, against, ok := orientEdge(g.Schema(), e, joined)
			if !ok {
				continue
			}
			te := graphrel.TreeEdge{Parent: slices.Index(t.keys, anchor), Down: g.Adjacency(down), Up: g.Inverse(down)}
			if against {
				te.Down, te.Up = te.Up, te.Down
			}
			t.keys, t.nodes, t.edges = append(t.keys, key), append(t.nodes, p.Node(key)), append(t.edges, te)
			progressed = true
		}
		if !progressed {
			return nil, errDisconnected
		}
	}
	return t, nil
}

// matchPipeline is the engine's single entry: MatchOpts and
// Cache.Prepare both call it. Each node's starting set is a
// resident ancestor's reduced set narrowed by the conjuncts it lacks
// (deriveFrom), or else its selected base (buildPlan's predicate; cached
// under the base key when the caller has a cache and the pattern
// joins). The full semi-join reduction (graphrel.Reduce) over t then
// yields the reduced sets. A pattern without edges has nothing to
// reduce: its selected base is its match.
func matchPipeline(ctx context.Context, g *tgm.InstanceGraph, p *Pattern, t *patternTree, cache *Cache) (*graphrel.Relation, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	d := deriveFrom(p, cache)
	var residual map[string]expr.Expr
	if d != nil {
		residual = d.residual
	}
	pl, err := buildPlan(g, p, residual)
	if err != nil {
		return nil, err
	}
	sets := make([]graphrel.NodeSet, len(t.nodes))
	for i, n := range t.nodes {
		if _, covered := residual[n.Key]; covered {
			anc, _ := d.red.Set(n.Key)
			if sets[i], err = selectSet(ctx, g, n, &anc, pl); err != nil {
				return nil, err
			}
			continue
		}
		// A joinless pattern's base is its match, which the caller
		// caches under the match key: a second entry under the base
		// key would hold the same set twice.
		if cache == nil || len(p.Nodes) == 1 {
			if sets[i], err = selectSet(ctx, g, n, nil, pl); err != nil {
				return nil, err
			}
			continue
		}
		base, err := getOrComputeLive(ctx, cache, basePrefix+nodeSignature(n), func() (*graphrel.Relation, error) {
			s, err := selectSet(ctx, g, n, nil, pl)
			if err != nil {
				return nil, err
			}
			return graphrel.NewRelation([]string{n.Key}, []graphrel.NodeSet{s}, []graphrel.TreeEdge{{}})
		})
		if err != nil {
			return nil, err
		}
		sets[i], _ = base.Set(n.Key)
	}
	if sets, err = graphrel.Reduce(ctx, sets, t.edges); err != nil {
		return nil, err
	}
	return graphrel.NewRelation(t.keys, sets, t.edges)
}

// selectSet applies n's planned condition to its starting set: from
// (an ancestor's reduced set) when given, else the node type's base.
func selectSet(ctx context.Context, g *tgm.InstanceGraph, n *PatternNode, from *graphrel.NodeSet, pl *Plan) (graphrel.NodeSet, error) {
	pred := pl.preds[n.Key]
	if from != nil && pred == nil {
		return *from, nil
	}
	ids := g.NodesOfType(n.Type)
	if from != nil && from.Len() < len(ids) {
		ids = from.IDs()
	}
	return graphrel.SelectSet(ctx, g, ids, pred)
}
