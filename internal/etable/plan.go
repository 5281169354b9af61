package etable

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// Plan is what can be prepared for a pattern before any base relation
// exists: its per-node selection conditions, compiled to column kernels
// (expr.Compile) that graphrel.Select runs. The join order is
// not part of it — matchPipeline derives it from the selected bases'
// exact sizes (orderJoins). A plan is built on the match-cache miss
// that needs it and is not cached: a repeated query hits the cached
// match or its cached bases first.
type Plan struct {
	// preds holds each conditioned node's compiled condition (no entry
	// = unconditioned node).
	preds map[string]*expr.Pred
}

// PlanForOpts compiles p's plan over g.
//
// Deprecated: plans are no longer cached, so this is a fresh compile
// whatever the options; the benchmark harness in cmd/etable-load still
// calls it to time planning on its own.
func PlanForOpts(g *tgm.InstanceGraph, p *Pattern, _ ExecOptions) (*Plan, error) {
	return buildPlan(g, p)
}

// buildPlan compiles every conditioned node's predicate.
func buildPlan(g *tgm.InstanceGraph, p *Pattern) (*Plan, error) {
	preds := make(map[string]*expr.Pred, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Cond == nil {
			continue
		}
		nt := g.Schema().NodeType(n.Type)
		if nt == nil {
			return nil, fmt.Errorf("etable: pattern node %q has unknown type %q", n.Key, n.Type)
		}
		pred, err := expr.Compile(n.Cond, nt)
		if err != nil {
			return nil, err
		}
		preds[n.Key] = pred
	}
	return &Plan{preds: preds}, nil
}

// JoinStep is one join of the instance-matching pipeline: extend the
// matched relation from AnchorKey (already joined) to NewKey along
// EdgeName, which is oriented anchor → new.
type JoinStep struct {
	AnchorKey string
	NewKey    string
	EdgeName  string
}

// orderJoins orders the pattern's joins over its selected bases, whose
// exact sizes the engine holds by the time it needs the order. Matching
// starts at the smallest base and greedily extends the joined set along
// the frontier edge with the lowest output estimate
//
//	|current| × AvgOutDegree(edge) × |σ(new)| / |type(new)|
//
// — the edge type's mean fan-out scaled by the fraction of the new
// node's type that survived its selection — ties broken by declaration
// order. |current| is the previous step's estimate, floored at 1 so an
// empty intermediate still ranks the remaining edges. Selective branches
// thus prune the intermediate before high-fan-out joins multiply it.
// The tuple set produced is independent of the order; only intermediate
// sizes change.
func orderJoins(g *tgm.InstanceGraph, p *Pattern, bases map[string]*graphrel.Relation) (startKey string, steps []JoinStep, err error) {
	for _, n := range p.Nodes {
		if startKey == "" || bases[n.Key].Len() < bases[startKey].Len() {
			startKey = n.Key
		}
	}
	joined := map[string]bool{startKey: true}
	est := float64(bases[startKey].Len())
	for len(joined) < len(p.Nodes) {
		found := false
		var best JoinStep
		var bestEst float64
		for _, e := range p.Edges {
			anchorKey, newKey, edgeName, ok := orientEdge(g.Schema(), e, joined)
			if !ok {
				continue
			}
			cand := est * g.AvgOutDegree(edgeName) * survived(g, p, bases, newKey)
			if !found || cand < bestEst {
				found, bestEst = true, cand
				best = JoinStep{AnchorKey: anchorKey, NewKey: newKey, EdgeName: edgeName}
			}
		}
		if !found {
			return "", nil, errDisconnected
		}
		steps = append(steps, best)
		joined[best.NewKey] = true
		if est = bestEst; est < 1 {
			est = 1
		}
	}
	return startKey, steps, nil
}

// survived is the fraction of a pattern node's type that its selected
// base kept; 0, never NaN, for a type with no nodes.
func survived(g *tgm.InstanceGraph, p *Pattern, bases map[string]*graphrel.Relation, key string) float64 {
	total := len(g.NodesOfType(p.Node(key).Type))
	if total == 0 {
		return 0
	}
	return float64(bases[key].Len()) / float64(total)
}
