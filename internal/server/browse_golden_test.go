package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/snapshot"
	"repro/internal/tgm"
	"repro/internal/translate"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/browse.golden")

const browseGolden = "testdata/browse.golden"

// TestBrowseGolden is the response-byte guard of the serving path: fixed
// op lists — the cold_explore script, the six study tasks with a
// hide/revert detour and a history hand-over, a page_scan re-sort with
// cursor pages, and the study tasks again over a paged snapshot whose
// joins pass a small -max-rows — replayed by one
// client through httptest on a generated 2,000-paper corpus. Every
// response is recorded as its status, the FNV-64 of its body and its
// totalRows, one line per request, and the whole record must equal
// testdata/browse.golden. An engine change that moves one byte of any
// response fails here; go test -run TestBrowseGolden -update rewrites
// the file when a change is meant to move them.
func TestBrowseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 2,000-paper corpus")
	}
	db, err := dataset.Generate(dataset.Config{Papers: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := browsePools(tr.Instance)
	var out strings.Builder
	replay := func(name string, h http.Handler, reqs []browseReq) {
		ts := httptest.NewServer(h)
		defer ts.Close()
		runBrowse(t, ts.URL, name, reqs, &out)
	}
	// The harness's server flags: -page-size 50, and on the paged tier
	// a row cap, which bounds a window and never a match.
	mem := func() http.Handler { return NewWithOptions(tr.Schema, tr.Instance, Options{PageSize: 50}) }
	replay("cold_explore", mem(), coldScript(pl))
	replay("study", mem(), studyScript(pl))
	replay("page_scan", mem(), scanScript())

	path := filepath.Join(t.TempDir(), "corpus.etsnap")
	if _, err := snapshot.SaveFile(path, tr.Instance); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Options{})
	if _, err := reg.AddSnapshotOpts("default", path, registry.SnapshotOptions{Lazy: true, PoolSections: 2}); err != nil {
		t.Fatal(err)
	}
	srv := NewFromRegistry(reg, Options{PageSize: 50, MaxRows: 300})
	replay("paged", srv, studyScript(pl))

	got := out.String()
	if *updateGolden {
		if err := os.WriteFile(browseGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(browseGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got  %s\n want %s", browseGolden, i+1, g, w)
			}
		}
	}
}

// browseReq is one request of a replayed list. Body and Path may hold
// the placeholders the previous responses fill: {sid} (the live
// session), {node} (the previous response's first row), {cursor} (its
// nextCursor) and {log} (the last exported history's replay body).
type browseReq struct {
	kind, method, path, body string
}

// runBrowse replays reqs against base, one request at a time, and
// appends one line per response to out.
func runBrowse(t *testing.T, base, name string, reqs []browseReq, out *strings.Builder) {
	t.Helper()
	var sid, node, cursor, log string
	for i, r := range reqs {
		fill := strings.NewReplacer("{sid}", sid, "{node}", node, "{cursor}", cursor, "{log}", log)
		path, body := fill.Replace(r.path), fill.Replace(r.body)
		req, err := http.NewRequest(r.method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode >= 300 {
			t.Fatalf("%s #%d %s %s %s: status %d: %s", name, i, r.kind, path, body, resp.StatusCode, raw)
		}
		var st struct {
			ID    int64 `json:"id"`
			Total *int  `json:"totalRows"`
			Rows  []struct {
				Node int64 `json:"node"`
			} `json:"rows"`
			NextCursor string          `json:"nextCursor"`
			Ops        json.RawMessage `json:"ops"`
			Cursor     int             `json:"cursor"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("%s #%d %s: %v", name, i, r.kind, err)
		}
		h := fnv.New64a()
		h.Write(raw)
		total := "-"
		if st.Total != nil {
			total = fmt.Sprint(*st.Total)
		}
		fmt.Fprintf(out, "%s %d %s %d %016x %s\n", name, i, r.kind, resp.StatusCode, h.Sum64(), total)
		switch {
		case r.kind == "create":
			sid = fmt.Sprint(st.ID)
		case r.kind == "history":
			log = fmt.Sprintf(`{"ops":%s,"cursor":%d}`, st.Ops, st.Cursor)
		}
		if len(st.Rows) > 0 {
			node = fmt.Sprint(st.Rows[0].Node)
		}
		cursor = st.NextCursor
	}
}

// browsePoolSet holds the script parameters, read from the corpus:
// sorted labels, picked by fixed positions.
type browsePoolSet struct {
	conferences, countries, authors, institutions, papers []string
}

func browsePools(g *tgm.InstanceGraph) browsePoolSet {
	labels := func(typeName string) []string {
		var out []string
		for _, id := range g.NodesOfType(typeName) {
			out = append(out, g.Node(id).Label())
		}
		sort.Strings(out)
		return out
	}
	return browsePoolSet{
		conferences:  labels("Conferences"),
		countries:    labels("Institutions: country"),
		authors:      labels("Authors"),
		institutions: labels("Institutions"),
		papers:       labels("Papers"),
	}
}

// browseScript builds one list; ops render the [0, lim) window.
type browseScript struct {
	reqs []browseReq
}

const sessionRoute = "/api/v1/sessions/{sid}"

func (b *browseScript) create() {
	b.reqs = append(b.reqs, browseReq{kind: "create", method: "POST", path: "/api/v1/sessions"})
}

func (b *browseScript) op(kind, body string, lim int) {
	path := sessionRoute + "/ops"
	if lim > 0 {
		path += fmt.Sprintf("?limit=%d", lim)
	}
	b.reqs = append(b.reqs, browseReq{kind: kind, method: "POST", path: path, body: body})
}

func (b *browseScript) page(off, lim int) {
	b.reqs = append(b.reqs, browseReq{kind: "page", method: "GET",
		path: fmt.Sprintf("%s?offset=%d&limit=%d", sessionRoute, off, lim)})
}

func (b *browseScript) cursorPage() {
	b.reqs = append(b.reqs, browseReq{kind: "page", method: "GET", path: sessionRoute + "?cursor={cursor}"})
}

func q(s string) string {
	buf, _ := json.Marshal(s)
	return string(buf)
}

func sq(s string) string { return strings.ReplaceAll(s, "'", "''") }

// coldScript is cold_explore's script: a page_start threshold, an
// author-name LIKE through the Authors column, two pivots and three
// short pages.
func coldScript(pl browsePoolSet) []browseReq {
	b := &browseScript{}
	b.create()
	b.op("open", `{"op":"open","table":"Papers"}`, 10)
	b.op("filter", `{"op":"filter","cond":"page_start >= 121.000001"}`, 10)
	b.op("filter_neighbor", `{"op":"filter_neighbor","column":"Authors","cond":"name like '%an%'"}`, 10)
	b.op("pivot", `{"op":"pivot","column":"Authors"}`, 10)
	b.op("pivot", `{"op":"pivot","column":"Institutions"}`, 10)
	for w := 1; w <= 3; w++ {
		b.page(10*w, 10)
	}
	return b.reqs
}

// studyScript is the six study tasks in one session at the server's
// default page size, with a hide/revert detour and a history
// hand-over into a second session between tasks.
func studyScript(pl browsePoolSet) []browseReq {
	const lim = 50
	b := &browseScript{}
	b.create()
	openPapers := func() {
		b.op("open", `{"op":"open","table":"Papers"}`, 0)
		b.page(lim, lim)
	}
	// Task 1: the year of a paper.
	openPapers()
	b.op("filter", `{"op":"filter","cond":`+q("title = '"+sq(pl.papers[len(pl.papers)/3])+"'")+`}`, 0)
	// Task 2: the keywords of a paper.
	openPapers()
	b.op("filter", `{"op":"filter","cond":`+q("title = '"+sq(pl.papers[2*len(pl.papers)/3])+"'")+`}`, 0)
	b.op("seeall", `{"op":"seeall","node":{node},"column":"Paper_Keywords: keyword"}`, 0)
	// Presentation detour: hide a column, then revert past it.
	b.op("hide", `{"op":"hide","column":"keyword"}`, 0)
	b.op("revert", `{"op":"revert","index":4}`, 0)
	// Task 3: an author's papers from a year on.
	openPapers()
	b.op("filter_neighbor", `{"op":"filter_neighbor","column":"Authors","cond":`+q("name = '"+sq(pl.authors[len(pl.authors)/2])+"'")+`}`, 0)
	b.op("filter", `{"op":"filter","cond":"year >= 2000"}`, 0)
	// The hand-over: export the history, replay it into a new session.
	b.reqs = append(b.reqs, browseReq{kind: "history", method: "GET", path: sessionRoute + "/history"})
	b.create()
	b.reqs = append(b.reqs, browseReq{kind: "replay", method: "POST", path: sessionRoute + "/replay", body: "{log}"})
	b.page(0, lim)
	// Task 4: an institution's papers at a conference.
	b.op("open", `{"op":"open","table":"Institutions"}`, 0)
	b.op("filter", `{"op":"filter","cond":`+q("name = '"+sq(pl.institutions[len(pl.institutions)/2])+"'")+`}`, 0)
	b.op("pivot", `{"op":"pivot","column":"Authors"}`, 0)
	b.op("pivot", `{"op":"pivot","column":"Papers"}`, 0)
	b.op("filter_neighbor", `{"op":"filter_neighbor","column":"Conferences","cond":`+q("acronym = '"+sq(pl.conferences[len(pl.conferences)/3])+"'")+`}`, 0)
	// Task 5: the institution of a country with most researchers.
	b.op("open", `{"op":"open","table":"Institutions"}`, 0)
	b.op("filter", `{"op":"filter","cond":`+q("country like '%"+sq(pl.countries[0])+"%'")+`}`, 0)
	b.op("sort", `{"op":"sort","column":"Authors","desc":true}`, 0)
	// Task 6: the top researchers of a conference, then the first one.
	b.op("open", `{"op":"open","table":"Conferences"}`, 0)
	b.op("filter", `{"op":"filter","cond":`+q("acronym = '"+sq(pl.conferences[len(pl.conferences)/2])+"'")+`}`, 0)
	b.op("pivot", `{"op":"pivot","column":"Papers"}`, 0)
	b.op("pivot", `{"op":"pivot","column":"Authors"}`, 0)
	b.op("sort", `{"op":"sort","column":"Papers","desc":true}`, 0)
	b.page(lim, lim)
	b.page(2*lim, lim)
	b.op("single", `{"op":"single","node":{node}}`, 0)
	return b.reqs
}

// scanScript is one page_scan reader: Papers re-sorted by its Authors
// count, then by title, each followed through cursor pages.
func scanScript() []browseReq {
	b := &browseScript{}
	b.create()
	b.op("open", `{"op":"open","table":"Papers"}`, 100)
	b.cursorPage()
	b.op("sort", `{"op":"sort","column":"Authors","desc":true}`, 100)
	for i := 0; i < 3; i++ {
		b.cursorPage()
	}
	b.op("sort", `{"op":"sort","attr":"title"}`, 100)
	for i := 0; i < 2; i++ {
		b.cursorPage()
	}
	return b.reqs
}
