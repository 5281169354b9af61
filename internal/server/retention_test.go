package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/snapshot"
	"repro/internal/tgm"
	"repro/internal/value"
)

// retentionGraph is a frozen graph of papers keyed and labelled by
// long, distinct titles (one STRING column of papers × titleBytes
// bytes), each tagged with one of a few tags.
func retentionGraph(t *testing.T, papers, titleBytes int) *tgm.InstanceGraph {
	t.Helper()
	schema := tgm.NewSchemaGraph()
	for _, nt := range []tgm.NodeType{
		{Name: "Papers", Kind: tgm.NodeEntity, Label: "title", Key: "title", Attrs: []tgm.Attr{{Name: "title", Type: value.KindString}}},
		{Name: "Tags", Kind: tgm.NodeEntity, Label: "tag", Attrs: []tgm.Attr{{Name: "tag", Type: value.KindString}}},
	} {
		if _, err := schema.AddNodeType(nt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := schema.AddBidirectional(tgm.EdgeType{Name: "tagged", Source: "Papers", Target: "Tags", Kind: tgm.EdgeMultiValued}); err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(schema)
	var tags []tgm.NodeID
	for i := 0; i < 8; i++ {
		id, err := g.AddNode("Tags", []value.V{value.Str(fmt.Sprintf("tag %d", i))})
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, id)
	}
	pad := strings.Repeat("x", titleBytes)
	for i := 0; i < papers; i++ {
		title := fmt.Sprintf("paper %06d %s", i, pad)[:titleBytes]
		id, err := g.AddNode("Papers", []value.V{value.Str(title)})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge("tagged", id, tags[i%len(tags)]); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestEvictedBlobsAreReleased: a lazily loaded STRING column shares one
// blob among its rows, so any string the server keeps from it keeps the
// whole column. Behind a one-section pager, a session faults the title
// column in and out more than fifty times — a single (whose key
// condition holds a title), a page of papers (rows and label fragments)
// and a page of tags (which evicts the titles) per cycle — and the live
// heap must not grow by more than a few blobs: every string held past a
// fault is a clone. /api/v1/stats reports the pager's resident bytes.
func TestEvictedBlobsAreReleased(t *testing.T) {
	const papers, titleBytes, cycles = 1000, 512, 60
	path := filepath.Join(t.TempDir(), "titles.etsnap")
	if _, err := snapshot.SaveFile(path, retentionGraph(t, papers, titleBytes)); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Options{})
	ds, err := reg.AddSnapshotOpts("default", path, registry.SnapshotOptions{Lazy: true, PoolSections: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewFromRegistry(reg, Options{PageSize: 10}))
	t.Cleanup(ts.Close)
	c := &stateClient{t: t, ts: ts}
	id, _ := c.create(`{"ops":[{"op":"open","table":"Papers"}]}`)
	ops := fmt.Sprintf("/api/v1/sessions/%d/ops", id)
	cycle := func(i int) {
		node := int64(8 + i*17%papers) // Papers follow the eight Tags
		c.do("POST", ops, fmt.Sprintf(`{"op":"single","node":%d}`, node))
		c.do("POST", ops+"?offset=500&limit=10", `{"op":"open","table":"Papers"}`)
		c.do("POST", ops, `{"op":"open","table":"Tags"}`)
	}
	for i := 0; i < 5; i++ {
		cycle(i)
	}
	before := heapAlloc()
	faults0, _, _ := ds.PagerStats()
	for i := 5; i < cycles; i++ {
		cycle(i)
	}
	growth := int64(heapAlloc()) - int64(before)
	st, _, _ := ds.PagerStats()
	// Two columns take turns in one section, so at least half the faults
	// are the title column's.
	if n := st.Misses - faults0.Misses; n < 2*50 {
		t.Fatalf("%d faults in %d cycles, want ≥ 100", n, cycles-5)
	}
	blob := int64(papers * titleBytes)
	if growth > 4*blob {
		t.Fatalf("live heap grew %d bytes over %d faults of a %d-byte column: evicted blobs are still reachable",
			growth, st.Misses-faults0.Misses, blob)
	}

	var stats struct {
		Datasets []struct {
			Pager struct {
				ResidentSections int   `json:"residentSections"`
				ResidentBytes    int64 `json:"residentBytes"`
			} `json:"pager"`
		} `json:"datasets"`
	}
	if err := json.Unmarshal(c.do("GET", "/api/v1/stats", ""), &stats); err != nil {
		t.Fatal(err)
	}
	p := stats.Datasets[0].Pager
	if p.ResidentSections != 1 || p.ResidentBytes <= 0 || p.ResidentBytes > blob {
		t.Fatalf("pager reports %d sections of %d bytes resident, want the tag column's bytes", p.ResidentSections, p.ResidentBytes)
	}
}
