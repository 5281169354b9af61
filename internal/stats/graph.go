package stats

// Graph statistics over a TGDB instance graph. Where the rest of this
// package reproduces the paper's *evaluation* statistics (t-tests,
// confidence intervals), this file summarizes the graph itself:
// per-edge-type out-degree histograms. No planner reads them — the
// etable engine orders joins by the exact sizes of its selected bases —
// they are what /api/v1/stats reports as edgeStats, and what the
// snapshot format's STAT section persists (kept for v2 compatibility).
//
// Statistics are computed once per frozen graph, on first use (For),
// or published by a snapshot load from its STAT section (Attach), and
// are immutable afterwards, like the graph itself.

import (
	"math"
	"math/bits"

	"repro/internal/tgm"
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

// Graph is the full statistics set of one instance graph.
type Graph struct {
	// Edges maps edge type name → EdgeStats.
	Edges map[string]EdgeStats
}

// Collect computes fresh statistics for g: one pass over each edge
// type's source nodes, reading degrees through one adjacency handle.
// For keeps the result for a frozen graph.
func Collect(g *tgm.InstanceGraph) *Graph {
	s := &Graph{Edges: make(map[string]EdgeStats)}
	for _, et := range g.Schema().EdgeTypes() {
		adj := g.Adjacency(et.Name)
		// A snapshot-loaded graph holds its STAT section's statistics,
		// so only a graph with no snapshot behind it is collected; a
		// failed deferred load reads as no edges, as Degree does.
		_ = adj.Ensure()
		srcIDs := g.NodesOfType(et.Source)
		es := EdgeStats{Sources: len(srcIDs)}
		for _, id := range srcIDs {
			d := adj.Degree(id)
			if d == 0 {
				continue
			}
			es.Count += d
			es.SourcesWithOut++
			if d > es.MaxOutDegree {
				es.MaxOutDegree = d
			}
			es.Hist[min(bits.Len(uint(d))-1, HistBuckets-1)]++
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
// every call: one degree read per source node of each edge type. For a
// nil graph it returns nil.
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
