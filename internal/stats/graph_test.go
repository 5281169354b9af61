package stats

import (
	"math"
	"sync"
	"testing"

	"repro/internal/tgm"
	"repro/internal/value"
)

// statGraph builds a small two-type graph: 8 As (attr "k" cycling over
// 4 values, attr "u" unique), 4 Bs, and A→B edges with known degrees
// (A0: 4 edges, A1: 2, A2: 1, A3: 1, A4–A7: 0). The type "Empty" has no
// instances — the division-by-zero guard case.
func statGraph(t testing.TB) *tgm.InstanceGraph {
	t.Helper()
	s := tgm.NewSchemaGraph()
	if _, err := s.AddNodeType(tgm.NodeType{Name: "A", Label: "u", Attrs: []tgm.Attr{
		{Name: "k", Type: value.KindInt},
		{Name: "u", Type: value.KindInt},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddNodeType(tgm.NodeType{Name: "B", Label: "id",
		Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddNodeType(tgm.NodeType{Name: "Empty", Label: "id",
		Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}}); err != nil {
		t.Fatal(err)
	}
	for _, et := range []tgm.EdgeType{
		{Name: "A-B", Source: "A", Target: "B"},
		{Name: "Empty-B", Source: "Empty", Target: "B"},
	} {
		if _, err := s.AddEdgeType(et); err != nil {
			t.Fatal(err)
		}
	}
	g := tgm.NewInstanceGraph(s)
	var as, bs []tgm.NodeID
	for i := 0; i < 8; i++ {
		id, err := g.AddNode("A", []value.V{value.Int(int64(i % 4)), value.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		as = append(as, id)
	}
	for i := 0; i < 4; i++ {
		id, err := g.AddNode("B", []value.V{value.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, id)
	}
	for _, e := range [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 1}, {2, 0}, {3, 3}} {
		if err := g.AddEdge("A-B", as[e[0]], bs[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

func TestCollectEdgeStats(t *testing.T) {
	s := Collect(statGraph(t))
	es := s.Edges["A-B"]
	if es.Count != 8 || es.Sources != 8 || es.SourcesWithOut != 4 {
		t.Fatalf("A-B stats = %+v", es)
	}
	if es.MaxOutDegree != 4 {
		t.Errorf("max degree = %d, want 4", es.MaxOutDegree)
	}
	if es.Fanout != 1.0 {
		t.Errorf("fanout = %v, want 1", es.Fanout)
	}
	// Histogram: degree 1 ×2 → bucket 0; degree 2 ×1 → bucket 1;
	// degree 4 ×1 → bucket 2.
	if es.Hist[0] != 2 || es.Hist[1] != 1 || es.Hist[2] != 1 {
		t.Errorf("hist = %v", es.Hist[:4])
	}
	// Quantiles: half the sources have degree 0, so the median is 0 and
	// the p95 lands in the top bucket (degree 4).
	if q := es.DegreeQuantile(0.5); q != 0 {
		t.Errorf("p50 = %d, want 0", q)
	}
	if q := es.DegreeQuantile(0.95); q != 4 {
		t.Errorf("p95 = %d, want 4", q)
	}
	if q := es.DegreeQuantile(1.5); q != 4 {
		t.Errorf("q>1 = %d, want max-degree clamp", q)
	}
}

// TestEmptyTypeGuards is the division-by-zero satellite: every statistic
// over a node type with no instances must be finite (0), never NaN.
func TestEmptyTypeGuards(t *testing.T) {
	s := Collect(statGraph(t))
	es := s.Edges["Empty-B"]
	if es.Sources != 0 || es.Count != 0 {
		t.Fatalf("Empty-B stats = %+v", es)
	}
	if math.IsNaN(es.Fanout) || es.Fanout != 0 {
		t.Errorf("empty-source fanout = %v, want 0", es.Fanout)
	}
	if q := es.DegreeQuantile(0.9); q != 0 {
		t.Errorf("empty quantile = %d", q)
	}
	if For(nil) != nil {
		t.Error("For(nil) != nil")
	}
}

func TestNodeNDV(t *testing.T) {
	s := Collect(statGraph(t))
	ns := s.Nodes["A"]
	if ns.Count != 8 {
		t.Fatalf("A count = %d", ns.Count)
	}
	if ns.NDV["k"] != 4 || ns.NDV["u"] != 8 {
		t.Errorf("NDV = %v", ns.NDV)
	}
	if s.Nodes["Empty"].Count != 0 {
		t.Errorf("Empty count = %d", s.Nodes["Empty"].Count)
	}
}

func TestForCachesFrozenGraphs(t *testing.T) {
	g := statGraph(t)
	var wg sync.WaitGroup
	results := make([]*Graph, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = For(g)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent For calls returned different statistics objects")
		}
	}
	if For(g) != results[0] {
		t.Fatal("For did not cache the frozen graph's statistics")
	}
}
