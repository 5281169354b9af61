package etable

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/tgm"
)

// Plan is, per node, the selection condition its starting set still has
// to apply, compiled to column kernels (expr.Compile) that
// graphrel.SelectSet runs: the whole condition over a node's base, or the
// conjuncts a resident ancestor's match lacks (deriveFrom). It holds no
// join order. A plan is built on the miss that needs it and is not
// cached: a repeated query hits its cached match or bases first.
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
