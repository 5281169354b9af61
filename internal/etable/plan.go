package etable

import (
	"repro/internal/stats"
	"repro/internal/tgm"
)

// JoinStep is one planned join of the instance-matching pipeline: extend
// the matched relation from AnchorKey (already joined) to NewKey along
// EdgeName, which is oriented anchor → new.
type JoinStep struct {
	AnchorKey string
	NewKey    string
	EdgeName  string
	// EstIn and EstOut are the planner's cardinality estimates for the
	// relation entering and leaving this step. They propagate through
	// the join tree (each step's EstIn is the previous EstOut, floored
	// at 1) and feed the plan's peak estimate (planPeak), which decides
	// whether the execution gets its parallelism budget.
	EstIn  float64
	EstOut float64
}

// selFrac estimates the selectivity of a pattern node's condition: the
// fraction of its type's instances surviving selection. Empty node
// types yield 0, never NaN.
func selFrac(st *stats.Graph, p *Pattern, key string, sizes map[string]float64) float64 {
	total := st.Nodes[p.Node(key).Type].Count
	if total == 0 {
		return 0
	}
	return sizes[key] / float64(total)
}

// planJoinsSized is the cost-based join planner. It orders the
// pattern's joins greedily by estimated output cardinality instead of
// edge-declaration order. The estimate for extending a partial match of
// est tuples across an edge is
//
//	est × Fanout(edge) × selFrac(new node)
//
// — the edge type's per-source fan-out (from the statistics collected
// at translate time, internal/stats) scaled by the fraction of target
// instances surviving the new node's selection. Matching starts at the
// smallest base relation and always picks the frontier edge with the
// lowest estimate (ties broken by declaration order), so selective
// branches prune the intermediate result before high-fan-out joins
// multiply it. The tuple set produced is independent of the order; only
// intermediate sizes change.
//
// sizes are the statistics-only base-size estimates buildPlan derives
// before any base relation exists; every step carries its propagated
// EstIn/EstOut cardinalities for downstream decisions.
func planJoinsSized(g *tgm.InstanceGraph, p *Pattern, sizes map[string]float64) (startKey string, steps []JoinStep, err error) {
	st := stats.For(g)
	for _, n := range p.Nodes {
		if startKey == "" || sizes[n.Key] < sizes[startKey] {
			startKey = n.Key
		}
	}
	joined := map[string]bool{startKey: true}
	est := sizes[startKey]
	for len(joined) < len(p.Nodes) {
		found := false
		var bestStep JoinStep
		var bestEst float64
		for _, e := range p.Edges {
			anchorKey, newKey, edgeName, ok := orientEdge(g.Schema(), e, joined)
			if !ok {
				continue
			}
			cand := est * st.Fanout(edgeName) * selFrac(st, p, newKey, sizes)
			if !found || cand < bestEst {
				found = true
				bestEst = cand
				bestStep = JoinStep{AnchorKey: anchorKey, NewKey: newKey, EdgeName: edgeName,
					EstIn: est, EstOut: cand}
			}
		}
		if !found {
			return "", nil, errDisconnected
		}
		steps = append(steps, bestStep)
		joined[bestStep.NewKey] = true
		if est = bestEst; est < 1 {
			est = 1
		}
	}
	return startKey, steps, nil
}
