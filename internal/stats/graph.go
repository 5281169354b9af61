package stats

// Graph statistics over a TGDB instance graph. Where the rest of this
// package reproduces the paper's *evaluation* statistics (t-tests,
// confidence intervals), this file summarizes the graph itself:
// per-edge-type out-degree histograms and per-node-type attribute NDV
// (number-of-distinct-values) counts. No planner reads them — the
// etable engine orders joins by the exact sizes of its selected bases —
// they are what /api/v1/stats reports as edgeStats, and what the
// snapshot format's STAT section persists (kept for v2 compatibility).
//
// Statistics are computed once per frozen graph, on first use (For),
// or published by a snapshot load from its STAT section (Attach), and
// are immutable afterwards, like the graph itself.

import (
	"math"

	"repro/internal/tgm"
	"repro/internal/value"
)

// HistBuckets is the number of log2 out-degree buckets per edge type.
// Bucket b counts source nodes whose out-degree d satisfies
// 2^b <= d < 2^(b+1); degree-0 sources are Sources - SourcesWithOut.
// 16 buckets cover degrees up to 65535, far beyond any per-node fan-out
// the academic graph produces.
const HistBuckets = 16

// EdgeStats summarizes one edge type's out-degree distribution over all
// nodes of its source type.
type EdgeStats struct {
	// Count is the number of edges of this type.
	Count int
	// Sources is the number of nodes of the source type (including
	// nodes with no out-edge of this type).
	Sources int
	// SourcesWithOut is the number of source nodes with at least one
	// out-edge of this type.
	SourcesWithOut int
	// MaxOutDegree is the largest out-degree of any source node.
	MaxOutDegree int
	// Fanout is Count/Sources — the expected number of neighbors per
	// source node, counting zero-degree sources. It is 0 (never NaN)
	// when the source type has no instances.
	Fanout float64
	// Hist is the log2 out-degree histogram (see HistBuckets).
	Hist [HistBuckets]int
}

// DegreeQuantile returns an upper bound on the out-degree of the q
// quantile (0 < q <= 1) of source nodes, from the histogram. Zero-degree
// sources count below the first bucket. It answers "how skewed is this
// edge?" — a planner can distrust a mean fan-out whose p90 is 100× it.
func (e EdgeStats) DegreeQuantile(q float64) int {
	if e.Sources == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int(math.Ceil(q * float64(e.Sources)))
	seen := e.Sources - e.SourcesWithOut // degree-0 sources
	if seen >= target {
		return 0
	}
	for b := 0; b < HistBuckets; b++ {
		seen += e.Hist[b]
		if seen >= target {
			upper := (1 << (b + 1)) - 1 // max degree in bucket b
			if upper > e.MaxOutDegree {
				upper = e.MaxOutDegree
			}
			return upper
		}
	}
	return e.MaxOutDegree
}

// NodeStats summarizes one node type.
type NodeStats struct {
	// Count is the number of instances.
	Count int
	// NDV maps attribute name → number of distinct non-null values.
	NDV map[string]int
}

// Graph is the full statistics set of one instance graph.
type Graph struct {
	// Nodes maps node type name → NodeStats.
	Nodes map[string]NodeStats
	// Edges maps edge type name → EdgeStats.
	Edges map[string]EdgeStats
}

// Collect computes fresh statistics for g in one pass over its nodes
// and adjacency lists. For keeps the result for a frozen graph.
func Collect(g *tgm.InstanceGraph) *Graph {
	s := &Graph{
		Nodes: make(map[string]NodeStats),
		Edges: make(map[string]EdgeStats),
	}
	schema := g.Schema()
	for _, nt := range schema.NodeTypes() {
		ids := g.NodesOfType(nt.Name)
		ns := NodeStats{Count: len(ids), NDV: make(map[string]int, len(nt.Attrs))}
		for ai, a := range nt.Attrs {
			col, err := g.AttrColumn(nt.Name, ai)
			if err != nil {
				// A snapshot-loaded graph holds its STAT section's
				// statistics, so only a graph with no snapshot behind
				// it is collected. A fault failure here degrades to
				// NDV 0 for the column.
				ns.NDV[a.Name] = 0
				continue
			}
			distinct := make(map[string]struct{}, len(ids))
			for r := 0; r < col.Len(); r++ {
				if col.Kind(r) == value.KindNull {
					continue
				}
				distinct[col.At(r).Key()] = struct{}{}
			}
			ns.NDV[a.Name] = len(distinct)
		}
		s.Nodes[nt.Name] = ns
	}
	for _, et := range schema.EdgeTypes() {
		srcIDs := g.NodesOfType(et.Source)
		es := EdgeStats{Sources: len(srcIDs)}
		for _, id := range srcIDs {
			d := g.Degree(id, et.Name)
			if d == 0 {
				continue
			}
			es.Count += d
			es.SourcesWithOut++
			if d > es.MaxOutDegree {
				es.MaxOutDegree = d
			}
			b := 0
			for v := d; v > 1; v >>= 1 {
				b++
			}
			if b >= HistBuckets {
				b = HistBuckets - 1
			}
			es.Hist[b]++
		}
		if es.Sources > 0 {
			es.Fanout = float64(es.Count) / float64(es.Sources)
		}
		s.Edges[et.Name] = es
	}
	return s
}

// statsKey is the statistics' key in the graph's derived-state
// registry (tgm.Derive): one set per graph.
type statsKey struct{}

// For returns g's statistics: derived state (tgm.Derive), collected on
// the first call over a frozen graph — unless a snapshot load published
// the persisted ones first (Attach) — and shared for the graph's
// lifetime. An unfrozen graph, which may still change, recollects on
// every call: a full O(nodes×attrs + edges) pass. For a nil graph it
// returns nil.
func For(g *tgm.InstanceGraph) *Graph {
	if g == nil {
		return nil
	}
	s, _ := tgm.Derive(g, statsKey{}, func() (*Graph, error) { return Collect(g), nil })
	return s
}

// Attach publishes statistics persisted next to the graph (the
// snapshot's STAT section) as g's, so a restore never pays the Collect
// pass the save already paid. The first statistics a frozen graph
// holds win and are returned; an unfrozen graph keeps nothing, and s is
// returned as it is.
func Attach(g *tgm.InstanceGraph, s *Graph) *Graph {
	if g == nil || s == nil {
		return s
	}
	s, _ = tgm.Derive(g, statsKey{}, func() (*Graph, error) { return s, nil })
	return s
}
