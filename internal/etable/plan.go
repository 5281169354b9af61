package etable

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// Plan is what can be prepared for a pattern before any input relation
// exists: per node, the selection condition its input still has to
// apply, compiled to column kernels (expr.Compile) that graphrel.Select
// runs — the whole condition over a node's base, or only the conjuncts
// a resident ancestor's match lacks (deriveFrom). The join order is not
// part of it — matchPipeline derives it from the inputs' exact sizes
// (orderJoins). A plan is built on the match-cache miss that needs it
// and is not cached: a repeated query hits the cached match or its
// cached bases first.
type Plan struct {
	// preds holds each node's compiled residual condition (no entry =
	// nothing left to select).
	preds map[string]*expr.Pred
}

// PlanForOpts compiles p's plan over g.
//
// Deprecated: plans are no longer cached, so this is a fresh compile
// whatever the options; the benchmark harness in cmd/etable-load still
// calls it to time planning on its own.
func PlanForOpts(g *tgm.InstanceGraph, p *Pattern, _ ExecOptions) (*Plan, error) {
	return buildPlan(g, p, nil)
}

// buildPlan compiles every node's residual condition: for a key in
// residual, the conjuncts given there (nil: none); otherwise the node's
// whole condition.
func buildPlan(g *tgm.InstanceGraph, p *Pattern, residual map[string]expr.Expr) (*Plan, error) {
	preds := make(map[string]*expr.Pred, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		cond, ok := residual[n.Key]
		if !ok {
			cond = n.Cond
		}
		if cond == nil {
			continue
		}
		nt := g.Schema().NodeType(n.Type)
		if nt == nil {
			return nil, fmt.Errorf("etable: pattern node %q has unknown type %q", n.Key, n.Type)
		}
		pred, err := expr.Compile(cond, nt)
		if err != nil {
			return nil, err
		}
		preds[n.Key] = pred
	}
	return &Plan{preds: preds}, nil
}

// unit is one input of the join loop: a relation holding one attribute
// per pattern node it covers. From the bases every node is a unit of
// its own, its selected base; a derived match adds one unit for the
// resident ancestor's match, covering every ancestor key.
type unit struct {
	keys []string
	rel  *graphrel.Relation
}

// JoinStep is one join of the instance-matching pipeline: extend the
// matched relation from AnchorKey (already joined) to NewKey along
// EdgeName, which is oriented anchor → new.
type JoinStep struct {
	AnchorKey string
	NewKey    string
	EdgeName  string
	// right is the unit joined in (it covers NewKey): the join's build
	// side.
	right *graphrel.Relation
}

// orderJoins orders the pattern's joins over its units, whose exact
// sizes the engine holds by the time it needs the order. Matching
// starts at the smallest unit and greedily extends the joined set along
// the frontier edge with the lowest output estimate
//
//	|current| × AvgOutDegree(edge) × |unit(new)| / |type(new)|
//
// — the edge type's mean fan-out scaled by the unit's rows per node of
// the new node's type (for a base, the fraction of the type that
// survived its selection) — ties broken by declaration order. |current|
// is the previous step's estimate, floored at 1 so an empty
// intermediate still ranks the remaining edges. Selective branches thus
// prune the intermediate before high-fan-out joins multiply it. A
// pattern is a tree and a unit a connected part of it, so one edge
// joins a whole unit. The tuple set produced is independent of the
// order; only intermediate sizes change.
func orderJoins(g *tgm.InstanceGraph, p *Pattern, units []unit) (start unit, steps []JoinStep, err error) {
	owner := make(map[string]int, len(p.Nodes))
	si := 0
	for i, u := range units {
		for _, k := range u.keys {
			owner[k] = i
		}
		if u.rel.Len() < units[si].rel.Len() {
			si = i
		}
	}
	joined := make(map[string]bool, len(p.Nodes))
	for _, k := range units[si].keys {
		joined[k] = true
	}
	est := float64(units[si].rel.Len())
	for len(joined) < len(p.Nodes) {
		found := false
		var best JoinStep
		var bestEst float64
		var bestUnit int
		for _, e := range p.Edges {
			anchorKey, newKey, edgeName, ok := orientEdge(g.Schema(), e, joined)
			if !ok {
				continue
			}
			ui, ok := owner[newKey]
			if !ok {
				return unit{}, nil, fmt.Errorf("etable: no join input covers pattern node %q", newKey)
			}
			cand := est * g.AvgOutDegree(edgeName) * perNode(g, p, units[ui].rel, newKey)
			if !found || cand < bestEst {
				found, bestEst, bestUnit = true, cand, ui
				best = JoinStep{AnchorKey: anchorKey, NewKey: newKey, EdgeName: edgeName, right: units[ui].rel}
			}
		}
		if !found {
			return unit{}, nil, errDisconnected
		}
		steps = append(steps, best)
		for _, k := range units[bestUnit].keys {
			joined[k] = true
		}
		if est = bestEst; est < 1 {
			est = 1
		}
	}
	return units[si], steps, nil
}

// perNode is a unit's rows per node of key's type; 0, never NaN, for a
// type with no nodes.
func perNode(g *tgm.InstanceGraph, p *Pattern, rel *graphrel.Relation, key string) float64 {
	total := len(g.NodesOfType(p.Node(key).Type))
	if total == 0 {
		return 0
	}
	return float64(rel.Len()) / float64(total)
}
