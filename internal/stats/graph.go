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
// Statistics are computed once per graph — translate.Translate collects
// them right after freezing the instance graph — and are immutable
// afterwards, like the graph itself. For returns the frozen graph's
// cached statistics without recomputation.

import (
	"math"

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
// and adjacency lists. Call it once per graph (For caches the result
// for frozen graphs).
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
				// Collection runs at translate time over memory-resident
				// graphs; out-of-core graphs restore stats from their
				// snapshot's STAT section instead of recollecting. A
				// fault failure here degrades to NDV 0 for the column.
				ns.NDV[a.Name] = 0
				continue
			}
			distinct := make(map[string]struct{}, len(ids))
			for _, v := range col {
				if v.IsNull() {
					continue
				}
				distinct[v.Key()] = struct{}{}
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

// For returns g's statistics, computing and caching them on first use.
// The cache lives on the graph itself (InstanceGraph.StatsCache), so
// statistics share the graph's lifetime — no global registry pinning
// graphs for the life of the process. Only frozen graphs are cached (an
// unfrozen graph could still change); translate.Translate calls For
// right after freezing, so serving-path lookups always hit the cache.
// For a nil graph it returns nil.
//
// Performance note: on an UNFROZEN graph every call recollects — a full
// O(nodes×attrs + edges) pass. Callers that read statistics repeatedly
// over a hand-built graph should Freeze it first.
func For(g *tgm.InstanceGraph) *Graph {
	if g == nil {
		return nil
	}
	if v := g.StatsCache(); v != nil {
		return v.(*Graph)
	}
	s := Collect(g)
	if g.Frozen() {
		// A concurrent collector may have landed first; the first
		// published value wins so every caller shares one object.
		return g.SetStatsCache(s).(*Graph)
	}
	return s
}

// Attach publishes precomputed statistics for a frozen graph so later
// For calls return them without a collection pass. It exists for
// restore paths (internal/snapshot) that persisted the statistics next
// to the graph: booting from a snapshot must not pay the O(nodes×attrs
// + edges) Collect cost translation already paid. If statistics were
// already published (a concurrent For raced ahead), the first published
// value wins and is returned; for an unfrozen graph s is returned
// unpublished, mirroring For's caching rule.
func Attach(g *tgm.InstanceGraph, s *Graph) *Graph {
	if g == nil || s == nil {
		return s
	}
	if g.Frozen() {
		return g.SetStatsCache(s).(*Graph)
	}
	return s
}
