package etable

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// The match engine (the package doc's "Execution"): a miss computes a
// pattern's reduced node sets and the exact |m(Q)| (matchPipeline), and
// m(Q) itself is enumerated from them only where tuples are the
// product: MatchOpts (enumerate).

// streamBatchRows overrides the enumeration's batch size; 0 uses
// graphrel.MorselRows. Tests shrink it to exercise multi-batch
// pipelines on hand-checkable fixtures.
var streamBatchRows = 0

// patternTree is a pattern rooted at its primary node: keys and nodes
// in tree order (the primary first, every parent before its children),
// and per node its place in the tree — the edge to its parent, both
// ways — and the join step parent → node (down, against: orientEdge).
type patternTree struct {
	keys    []string
	nodes   []*PatternNode
	edges   []graphrel.TreeEdge
	down    []string
	against []bool
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
	t := &patternTree{keys: []string{prim.Key}, nodes: []*PatternNode{prim},
		edges: make([]graphrel.TreeEdge, 1), down: []string{""}, against: []bool{false}}
	at := map[string]int{prim.Key: 0}
	joined := map[string]bool{prim.Key: true}
	for len(t.keys) < len(p.Nodes) {
		progressed := false
		for _, e := range p.Edges {
			anchor, key, down, against, ok := orientEdge(g.Schema(), e, joined)
			if !ok {
				continue
			}
			te := graphrel.TreeEdge{Parent: at[anchor], Down: g.Adjacency(down), Up: g.Inverse(down)}
			if against {
				te.Down, te.Up = te.Up, te.Down
			}
			at[key], joined[key] = len(t.keys), true
			t.keys, t.nodes = append(t.keys, key), append(t.nodes, p.Node(key))
			t.edges, t.down, t.against = append(t.edges, te), append(t.down, down), append(t.against, against)
			progressed = true
		}
		if !progressed {
			return nil, errDisconnected
		}
	}
	return t, nil
}

// matchPipeline is the engine's single entry: MatchOpts, ExecuteOpts
// and the caching Executor all call it. Each node's starting set is a
// resident ancestor's reduced set narrowed by the conjuncts it lacks
// (deriveFrom), or else its selected base (buildPlan's predicate; cached
// under the base key when the caller has a cache and the pattern
// joins). The full semi-join reduction (graphrel.Reduce) over t then
// yields the reduced sets and |m(Q)|. A pattern without edges has
// nothing to reduce: its selected base is its match.
func matchPipeline(g *tgm.InstanceGraph, p *Pattern, t *patternTree, opt ExecOptions, cache *Cache) (*Reduced, error) {
	if err := ctxErr(opt.Ctx); err != nil {
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
			if sets[i], err = selectSet(g, opt, n, &anc, pl); err != nil {
				return nil, err
			}
			continue
		}
		selectBase := func() (*Reduced, error) {
			s, err := selectSet(g, opt, n, nil, pl)
			if err != nil {
				return nil, err
			}
			return &Reduced{keys: []string{n.Key}, sets: []graphrel.NodeSet{s}, rows: s.Len()}, nil
		}
		// A joinless pattern's base is its match, which the caller
		// caches under the match key: a second entry under the base
		// key would hold the same set twice.
		if cache == nil || len(p.Nodes) == 1 {
			base, err := selectBase()
			if err != nil || len(p.Nodes) == 1 {
				return base, err
			}
			sets[i] = base.sets[0]
			continue
		}
		base, err := getOrComputeLive(opt.Ctx, cache, basePrefix+nodeSignature(n), selectBase)
		if err != nil {
			return nil, err
		}
		sets[i] = base.sets[0]
	}
	reduced, rows, err := graphrel.Reduce(opt.Ctx, sets, t.edges)
	if err != nil {
		return nil, err
	}
	return &Reduced{keys: t.keys, sets: reduced, rows: rows}, nil
}

// selectSet applies n's planned condition to its starting set: from
// (an ancestor's reduced set) when given, else the node type's base.
func selectSet(g *tgm.InstanceGraph, opt ExecOptions, n *PatternNode, from *graphrel.NodeSet, pl *Plan) (graphrel.NodeSet, error) {
	pred := pl.preds[n.Key]
	if from != nil && pred == nil {
		return *from, nil
	}
	ids := g.NodesOfType(n.Type)
	if from != nil && from.Len() < len(ids) {
		ids = from.IDs()
	}
	return graphrel.SelectSet(opt.Ctx, opt.Pool, opt.Parallelism, g, ids, pred)
}

// enumerate streams m(Q) from its reduced sets: the primary's set,
// joined along the tree in tree order, each step probing the child's
// set through StreamJoin. The sets are fully reduced, so every tuple
// a step produces extends to a full match. The caller must drain or
// Close the stream.
func enumerate(g *tgm.InstanceGraph, t *patternTree, red *Reduced, opt ExecOptions) (graphrel.RowSource, error) {
	var src graphrel.RowSource
	for i, n := range t.nodes {
		s, ok := red.Set(n.Key)
		if !ok {
			return nil, fmt.Errorf("etable: reduced match has no set for pattern node %q", n.Key)
		}
		rel, err := graphrel.SetRelation(g, n.Type, n.Key, s)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			src = graphrel.StreamRelationBatch(rel, streamBatchRows)
			continue
		}
		if src, err = graphrel.StreamJoin(opt.Ctx, src, rel, t.down[i], t.against[i], t.keys[t.edges[i].Parent], n.Key); err != nil {
			return nil, err
		}
	}
	return src, nil
}
