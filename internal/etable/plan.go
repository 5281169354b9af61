package etable

import (
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

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
