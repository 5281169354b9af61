package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/tgm"
	"repro/internal/value"
)

// TestFragTableConcurrentFirstCalls: eight goroutines asking for one
// type's fragment table at once share one build — every caller gets the
// same table, the one the registry holds, and the resident bytes count
// it once. Run under -race by scripts/check.sh.
func TestFragTableConcurrentFirstCalls(t *testing.T) {
	g := oracleGraph(t, rand.New(rand.NewSource(5)))
	const callers = 8
	tabs := make([]*fragTable, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range tabs {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			tab, err := fragTableOf(g, "Authors")
			if err != nil {
				t.Error(err)
			}
			tabs[i] = tab
		}()
	}
	start.Done()
	done.Wait()
	for i, tab := range tabs {
		if tab == nil || tab != tabs[0] {
			t.Fatalf("caller %d got table %p, caller 0 %p: more than one build", i, tab, tabs[0])
		}
	}
	if kept, ok := tgm.Peek[*fragTable](g, fragKey("Authors")); !ok || kept != tabs[0] {
		t.Fatal("the shared table is not the registry's")
	}
	if got, want := labelFragmentBytes(g), tabs[0].size(); got != want {
		t.Fatalf("resident fragment bytes %d, want one table's %d", got, want)
	}
	if n := len(g.NodesOfType("Authors")); len(tabs[0].offs) != n+1 {
		t.Fatalf("table of %d offsets for %d nodes", len(tabs[0].offs), n)
	}
}

// corruptLabelGraph saves a graph whose last node type's last attribute
// is its label, and flips a byte of that column in the NCOL section: on
// a lazy load, exactly the label column of "Damaged" fails its
// checksum. "Intact" shares no edge with it. A filler type Pad comes
// first, so both types' ID runs start at distinct non-zero IDs.
func corruptLabelGraph(t *testing.T) string {
	t.Helper()
	schema := tgm.NewSchemaGraph()
	for _, nt := range []tgm.NodeType{
		{Name: "Pad", Kind: tgm.NodeEntity, Label: "key", Attrs: []tgm.Attr{{Name: "key", Type: value.KindInt}}},
		{Name: "Intact", Kind: tgm.NodeEntity, Label: "name", Attrs: []tgm.Attr{
			{Name: "key", Type: value.KindInt}, {Name: "name", Type: value.KindString}}},
		{Name: "Damaged", Kind: tgm.NodeEntity, Label: "name", Attrs: []tgm.Attr{
			{Name: "key", Type: value.KindInt}, {Name: "name", Type: value.KindString}}},
	} {
		if _, err := schema.AddNodeType(nt); err != nil {
			t.Fatal(err)
		}
	}
	g := tgm.NewInstanceGraph(schema)
	for i := 0; i < 2; i++ {
		if _, err := g.AddNode("Pad", []value.V{value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, typ := range []string{"Intact", "Damaged"} {
		for i := 0; i < 40; i++ {
			if _, err := g.AddNode(typ, []value.V{value.Int(int64(i)), value.Str(strings.Repeat("<n>", i%4))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Freeze()
	path := filepath.Join(t.TempDir(), "damaged.etsnap")
	if _, err := snapshot.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	info, err := snapshot.ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	var off int64 = -1
	for _, sec := range info.Sections {
		if sec.Tag == "NCOL" {
			off = int64(sec.Offset + sec.Length - 1)
		}
	}
	if off < 0 {
		t.Fatal("no NCOL section")
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0x5a}, off); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPagedColumnReadsReleaseTheirPins: on a paged graph behind a
// two-section pager, AttrRank and fragTableOf each fault their column
// in — AttrColumn pins it for the read — and leave nothing pinned once
// they return.
func TestPagedColumnReadsReleaseTheirPins(t *testing.T) {
	ls, err := snapshot.LazyLoad(snapshotFile(t, 60, 36), snapshot.LazyOptions{PoolSections: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	g := ls.Graph
	after := func(what string, faults int64) {
		t.Helper()
		st, _ := ls.PagerStats()
		if st.Misses != faults {
			t.Fatalf("after %s: %d faults, want %d", what, st.Misses, faults)
		}
		if st.Pinned != 0 {
			t.Fatalf("after %s: %d columns left pinned", what, st.Pinned)
		}
	}
	after("open", 0)
	if _, err := g.AttrRank("Papers", g.Schema().NodeType("Papers").AttrIndex("year")); err != nil {
		t.Fatal(err)
	}
	after("AttrRank", 1)
	if _, err := fragTableOf(g, "Authors"); err != nil {
		t.Fatal(err)
	}
	after("fragTableOf", 2)
}

// TestFragTableCorruptLabelColumn: a type's fragment table is derived
// state in the graph's registry (tgm.Derive, whose contract
// internal/tgm tests). On a lazy snapshot whose label column is
// damaged, every try to build that type's fragments returns the typed
// *snapshot.CorruptError, keeps nothing and leaves nothing pinned —
// directly and through a page read, which fails as a 500 — while an
// intact type of the same graph still renders byte-exact, its one
// table is the one the registry holds, and /api/v1/stats reports that
// table's bytes.
func TestFragTableCorruptLabelColumn(t *testing.T) {
	ls, err := snapshot.LazyLoad(corruptLabelGraph(t), snapshot.LazyOptions{PoolSections: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	g := ls.Graph
	srv := NewWithOptions(ls.Schema, g, Options{PageSize: 5})
	pinned := func(what string) {
		t.Helper()
		if st, _ := ls.PagerStats(); st.Pinned != 0 {
			t.Fatalf("%s: %d columns left pinned", what, st.Pinned)
		}
	}
	for try := 0; try < 3; try++ {
		_, err := fragTableOf(g, "Damaged")
		var ce *snapshot.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("try %d: fragments of a corrupt label column = %v, want *snapshot.CorruptError", try, err)
		}
		if _, ok := tgm.Peek[*fragTable](g, fragKey("Damaged")); ok || labelFragmentBytes(g) != 0 {
			t.Fatalf("try %d: a failed build was memoized", try)
		}
		pinned("direct build")
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	for try := 0; try < 2; try++ {
		resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json",
			strings.NewReader(`{"ops":[{"op":"open","table":"Damaged"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("try %d: page over a corrupt label column = %d, want 500", try, resp.StatusCode)
		}
		pinned("page read")
	}
	c := newStateClient(t, srv)
	id, body := c.create(`{"ops":[{"op":"open","table":"Intact"}]}`)
	c.check("intact type", body, id, 0, 5)
	c.check("intact page", c.do("GET", fmt.Sprintf("/api/v1/sessions/%d?offset=7&limit=9", id), ""), id, 7, 9)
	pinned("intact type")
	tab, ok := tgm.Peek[*fragTable](g, fragKey("Intact"))
	if !ok {
		t.Fatal("the intact type's fragments are not in the registry")
	}
	if again, err := fragTableOf(g, "Intact"); err != nil || again != tab {
		t.Fatalf("a second fragTableOf = %p, %v; want the registry's %p", again, err, tab)
	}
	if n := len(g.NodesOfType("Intact")); len(tab.offs) != n+1 {
		t.Fatalf("table of %d offsets for %d nodes", len(tab.offs), n)
	}
	if labelFragmentBytes(g) != tab.size() {
		t.Fatalf("resident fragment bytes %d, want the one table's %d", labelFragmentBytes(g), tab.size())
	}
	var st struct {
		Datasets []struct {
			LabelFragmentBytes int64 `json:"labelFragmentBytes"`
		} `json:"datasets"`
	}
	if err := json.Unmarshal(c.do("GET", "/api/v1/stats", ""), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Datasets) != 1 || st.Datasets[0].LabelFragmentBytes != tab.size() {
		t.Fatalf("/api/v1/stats reports %+v, want labelFragmentBytes %d", st.Datasets, tab.size())
	}
}
