package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/etable"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/testdb"
	"repro/internal/tgm"
	"repro/internal/value"
)

// The encoder's reference: the structs every state response used to be
// copied into and marshalled from with encoding/json. They define the
// wire format — field order, omitempty, null-vs-[] — and survive here
// so appendStateJSON can be checked byte for byte against json.Marshal.

type stateJSON struct {
	ID         int64         `json:"id,omitempty"`
	Pattern    string        `json:"pattern"`
	Columns    []columnJSON  `json:"columns"`
	Rows       []rowJSON     `json:"rows"`
	TotalRows  int           `json:"totalRows"`
	Offset     int           `json:"offset"`
	NextCursor string        `json:"nextCursor,omitempty"`
	History    []historyItem `json:"history"`
	Cursor     int           `json:"cursor"`
}

type columnJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type rowJSON struct {
	Node  int64      `json:"node"`
	Label string     `json:"label"`
	Cells []cellJSON `json:"cells"`
}

type cellJSON struct {
	Value string    `json:"value,omitempty"`
	Refs  []refJSON `json:"refs,omitempty"`
	Count int       `json:"count"`
}

type refJSON struct {
	ID    int64  `json:"id"`
	Label string `json:"label"`
}

type historyItem struct {
	Action string `json:"action"`
}

// referenceState is the struct copy the encoder replaced, taking the
// same inputs as appendStateJSON.
func referenceState(id int64, entries []session.Entry, cursor int, res *etable.Result, nextCursor string) *stateJSON {
	st := &stateJSON{ID: id, Cursor: cursor, NextCursor: nextCursor}
	for _, h := range entries {
		st.History = append(st.History, historyItem{Action: h.Action})
	}
	if cursor >= 0 {
		st.Pattern = entries[cursor].Pattern.String()
	}
	if res == nil {
		return st
	}
	for _, c := range res.Columns {
		st.Columns = append(st.Columns, columnJSON{Name: c.Name, Kind: c.Kind.String()})
	}
	st.TotalRows = res.Total()
	st.Offset = res.Offset
	st.Rows = make([]rowJSON, 0, len(res.Rows))
	for _, row := range res.Rows {
		rj := rowJSON{Node: int64(row.Node), Label: row.Label}
		for ci := range res.Columns {
			cell := &row.Cells[ci]
			cj := cellJSON{Count: cell.Count()}
			if res.Columns[ci].Kind == etable.ColBase {
				cj.Value = cell.Value.Format()
			} else {
				for _, ref := range cell.Refs {
					cj.Refs = append(cj.Refs, refJSON{ID: int64(ref.ID), Label: ref.Label})
				}
			}
			rj.Cells = append(rj.Cells, cj)
		}
		st.Rows = append(st.Rows, rj)
	}
	return st
}

// nastyPieces are the string fragments the escaping rules are about.
var nastyPieces = []string{
	"", "a", "Zoë", "plain text", `"`, `\`, `\\"`, "<", ">", "&", "<script>&amp;</script>",
	"\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"\u2028", "\u2029", "\u2027", "\u202a", "日本語", "😀",
	"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80", "a\xffb",
}

func nastyString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		sb.WriteString(nastyPieces[rng.Intn(len(nastyPieces))])
	}
	return sb.String()
}

func nastyValue(rng *rand.Rand) value.V {
	switch rng.Intn(7) {
	case 0:
		return value.Null
	case 1:
		return value.Int(rng.Int63n(1<<40) - 1<<39)
	case 2:
		return value.Float(rng.NormFloat64() * 1e6)
	case 3:
		return value.Bool(rng.Intn(2) == 0)
	case 4:
		return value.Str("")
	default:
		return value.Str(nastyString(rng))
	}
}

// oracleGraph generates a graph for the byte oracle. Its labels cover
// every escape class — control bytes, quotes, backslashes, HTML
// characters, U+2028/9, invalid UTF-8 and the empty string — and every
// non-string kind: Venues are labelled by INT, FLOAT (NaN, ±Inf, −0),
// BOOL and NULL values. A filler type Pad is added first and every
// other type after it in one run, so each type's IDs start at a
// distinct non-zero ID and a fragment or label read at id instead of
// id − lo shows. Papers carry base attributes of every kind, including
// a mixed-kind one.
func oracleGraph(t testing.TB, rng *rand.Rand) *tgm.InstanceGraph {
	t.Helper()
	schema := tgm.NewSchemaGraph()
	for _, nt := range []tgm.NodeType{
		{Name: "Pad", Kind: tgm.NodeEntity, Label: "pad", Attrs: []tgm.Attr{{Name: "pad", Type: value.KindInt}}},
		{Name: "Papers", Kind: tgm.NodeEntity, Label: "title", Attrs: []tgm.Attr{
			{Name: "key", Type: value.KindInt}, {Name: "title", Type: value.KindString},
			{Name: "f", Type: value.KindFloat}, {Name: "b", Type: value.KindBool},
			{Name: "mixed", Type: value.KindString}}},
		{Name: "Authors", Kind: tgm.NodeEntity, Label: "name", Attrs: []tgm.Attr{
			{Name: "key", Type: value.KindInt}, {Name: "name", Type: value.KindString}}},
		{Name: "Venues", Kind: tgm.NodeEntity, Label: "code", Attrs: []tgm.Attr{
			{Name: "key", Type: value.KindInt}, {Name: "code", Type: value.KindFloat}}},
		{Name: "Tags", Kind: tgm.NodeEntity, Label: "tag", Attrs: []tgm.Attr{
			{Name: "tag", Type: value.KindString}}},
	} {
		if _, err := schema.AddNodeType(nt); err != nil {
			t.Fatal(err)
		}
	}
	for _, et := range []tgm.EdgeType{
		{Name: "written_by", Source: "Papers", Target: "Authors", Kind: tgm.EdgeManyToMany},
		{Name: "venue", Source: "Papers", Target: "Venues", Kind: tgm.EdgeOneToMany},
		{Name: "tagged", Source: "Papers", Target: "Tags", Kind: tgm.EdgeMultiValued},
	} {
		if _, err := schema.AddBidirectional(et); err != nil {
			t.Fatal(err)
		}
	}
	g := tgm.NewInstanceGraph(schema)
	add := func(typ string, attrs ...value.V) tgm.NodeID {
		id, err := g.AddNode(typ, attrs)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	specials := []value.V{value.Null, value.Bool(true), value.Bool(false), value.Int(-7), value.Int(1 << 40),
		value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
		value.Float(math.Copysign(0, -1)), value.Float(2.5e-9), value.Str("")}
	var papers, authors, venues, tags []tgm.NodeID
	for i := 0; i < 3; i++ {
		add("Pad", value.Int(int64(i)))
	}
	for i := 0; i < 60; i++ {
		papers = append(papers, add("Papers", value.Int(int64(i)), value.Str(nastyString(rng)),
			value.Float(rng.NormFloat64()), value.Bool(rng.Intn(2) == 0), nastyValue(rng)))
	}
	for i := 0; i < 24; i++ {
		authors = append(authors, add("Authors", value.Int(int64(i)), value.Str(nastyString(rng))))
	}
	for i := 0; i < 24; i++ {
		venues = append(venues, add("Venues", value.Int(int64(i)), specials[i%len(specials)]))
	}
	for i := 0; i < 10; i++ {
		tags = append(tags, add("Tags", value.Str(nastyString(rng))))
	}
	edge := func(et string, src, dst tgm.NodeID) {
		if err := g.AddEdge(et, src, dst); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range papers {
		for n := rng.Intn(4); n > 0; n-- {
			edge("written_by", p, authors[rng.Intn(len(authors))])
		}
		if rng.Intn(5) > 0 {
			edge("venue", p, venues[rng.Intn(len(venues))])
		}
		for n := rng.Intn(3); n > 0; n-- {
			edge("tagged", p, tags[rng.Intn(len(tags))])
		}
	}
	g.Freeze()
	return g
}

// stateClient drives one in-process server over HTTP and checks every
// state response against the reference encoding of the same state.
type stateClient struct {
	t   *testing.T
	srv *Server
	ts  *httptest.Server
}

func newStateClient(t *testing.T, srv *Server) *stateClient {
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &stateClient{t: t, srv: srv, ts: ts}
}

// do sends one request, requiring a 2xx status and a right
// Content-Length, and returns the body.
func (c *stateClient) do(method, path, body string) []byte {
	t := c.t
	t.Helper()
	req, err := http.NewRequest(method, c.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, buf.Bytes())
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(buf.Len()) {
		t.Errorf("%s %s: Content-Length %q for %d body bytes", method, path, cl, buf.Len())
	}
	return buf.Bytes()
}

// check re-derives the state the server just encoded from the live
// session — the same window, materialized by the Result consumer of
// the presentation's cursor — and compares got with encoding/json over
// its reference structs. It returns the nextCursor it expects.
func (c *stateClient) check(name string, got []byte, id int64, offset, limit int) string {
	t := c.t
	t.Helper()
	e, _ := c.srv.sessions.Lookup(id)
	sess := e.sess
	entries, cursor := sess.Entries()
	var res *etable.Result
	next := ""
	if cursor >= 0 {
		var err error
		if res, err = sess.WindowCtx(context.Background(), offset, limit); err != nil {
			t.Fatal(err)
		}
		if end := res.Offset + len(res.Rows); end < res.Total() && limit > 0 {
			next = encodeCursor(cursorToken{Offset: end, Limit: limit, Sig: presentationSig(entries[cursor])})
		}
	}
	want, err := json.Marshal(referenceState(id, entries, cursor, res, next))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs\nserver: %s\nreference: %s", name, got, want)
	}
	return next
}

// create opens a session with initial ops and returns its id.
func (c *stateClient) create(ops string) (int64, []byte) {
	body := c.do("POST", "/api/v1/sessions", ops)
	var created struct {
		ID int64 `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		c.t.Fatal(err)
	}
	return created.ID, body
}

// TestEncoderMatchesEncodingJSON is the independent byte oracle of the
// state encoder. Over generated graphs (oracleGraph), served eager and
// lazily behind a two-section pager, with a 40-row window cap that
// results pass, a session walks through sorts by every kind of key,
// hidden columns, and pivots onto the other types, reading random
// windows; every response — rows from label fragments and the cursor —
// must equal encoding/json over the reference structs of the window
// the Result consumer materializes for the same state.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := oracleGraph(t, rand.New(rand.NewSource(seed)))
		path := filepath.Join(t.TempDir(), "oracle.etsnap")
		if _, err := snapshot.SaveFile(path, g); err != nil {
			t.Fatal(err)
		}
		ls, err := snapshot.LazyLoad(path, snapshot.LazyOptions{PoolSections: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ls.Close() })
		for _, served := range []struct {
			name string
			g    *tgm.InstanceGraph
		}{{"eager", g}, {"lazy", ls.Graph}} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, served.name), func(t *testing.T) {
				srv := NewWithOptions(served.g.Schema(), served.g, Options{PageSize: 10, MaxRows: 40})
				walkOracleStates(newStateClient(t, srv), rand.New(rand.NewSource(seed)))
			})
		}
	}
}

// walkOracleStates drives one session of the oracle through its states,
// checking random windows of each.
func walkOracleStates(c *stateClient, rng *rand.Rand) {
	id, body := c.create(`{"ops":[{"op":"open","table":"Papers"}]}`)
	c.check("create", body, id, 0, 10)
	base := fmt.Sprintf("/api/v1/sessions/%d", id)
	windows := func(state string) {
		for i := 0; i < 6; i++ {
			offset, limit := rng.Intn(70), rng.Intn(25)
			got := c.do("GET", fmt.Sprintf("%s?offset=%d&limit=%d", base, offset, limit), "")
			next := c.check(fmt.Sprintf("%s [%d,+%d)", state, offset, limit), got, id, offset, limit)
			if next != "" {
				c.check(state+" next page", c.do("GET", base+"?cursor="+next, ""), id, offset+limit, limit)
			}
		}
	}
	windows("open")
	// A condition full of nasty bytes, which every row passes: the
	// pattern text and the history action carry it.
	filter, err := json.Marshal(map[string]string{"op": "filter",
		"cond": "mixed <> '" + strings.Join(nastyPieces, "") + "'"})
	if err != nil {
		c.t.Fatal(err)
	}
	got := c.do("POST", base+"/ops?limit=7", string(filter))
	c.check("nasty filter", got, id, 0, 7)
	var st struct {
		Pattern   string `json:"pattern"`
		TotalRows int    `json:"totalRows"`
	}
	if err := json.Unmarshal(got, &st); err != nil {
		c.t.Fatal(err)
	}
	if !strings.Contains(st.Pattern, "<script>&amp;</script>\x00") || !strings.Contains(st.Pattern, "\u2028\u2029") || st.TotalRows == 0 {
		c.t.Fatalf("nasty filter: pattern %q over %d rows; want the condition in the pattern and rows left", st.Pattern, st.TotalRows)
	}
	windows("nasty filter")
	for _, op := range []string{
		`{"op":"sort","attr":"mixed","desc":true}`,
		`{"op":"sort","attr":"title"}`,
		`{"op":"sort","column":"Authors","desc":true}`,
		`{"op":"hide","column":"f"}`,
		`{"op":"hide","column":"Venues"}`,
		`{"op":"hide","column":"title"}`,
		`{"op":"pivot","column":"Authors"}`,
		`{"op":"sort","column":"Papers"}`,
		`{"op":"revert","index":5}`,
		`{"op":"pivot","column":"Venues"}`,
		`{"op":"sort","attr":"code","desc":true}`,
	} {
		c.check(op, c.do("POST", base+"/ops?limit=7", op), id, 0, 7)
		windows(op)
	}
	// Hide every column, one at a time, down to the column-less layout:
	// "columns":null and rows whose "cells" are null.
	e, _ := c.srv.sessions.Lookup(id)
	res, err := e.sess.WindowCtx(context.Background(), 0, 0)
	if err != nil {
		c.t.Fatal(err)
	}
	for _, col := range res.Columns {
		op, err := json.Marshal(map[string]string{"op": "hide", "column": col.Name})
		if err != nil {
			c.t.Fatal(err)
		}
		c.check("hide "+col.Name, c.do("POST", base+"/ops?limit=7", string(op)), id, 0, 7)
	}
	windows("every column hidden")
	if res, err = e.sess.WindowCtx(context.Background(), 0, 0); err != nil || len(res.Columns) != 0 || res.Total() == 0 {
		c.t.Fatalf("after hiding every column: %d columns and %d rows left, err %v", len(res.Columns), res.Total(), err)
	}
}

// randomHistory builds a history of nasty actions over a pattern whose
// condition, node key and edge type are nasty too, and a cursor into
// it: -1 (no open table) for an empty history and one time in eight.
func randomHistory(rng *rand.Rand) (entries []session.Entry, cursor int) {
	pat := &etable.Pattern{Primary: "P", Nodes: []etable.PatternNode{
		{Key: "P", Type: "T", CondSrc: nastyString(rng)},
		{Key: nastyString(rng), Type: "U"},
	}, Edges: []etable.PatternEdge{{EdgeType: nastyString(rng), From: "P", To: "Q"}}}
	for n := rng.Intn(4); n > 0; n-- {
		entries = append(entries, session.Entry{Action: nastyString(rng), Pattern: pat})
	}
	if len(entries) == 0 || rng.Intn(8) == 0 {
		return entries, -1
	}
	return entries, rng.Intn(len(entries))
}

// TestEncoderStateFuzz is the encoder fuzz over what a state carries
// besides its rows: over random states whose history actions and
// pattern text are full of quotes, backslashes, HTML characters,
// control bytes, U+2028/9, invalid UTF-8 and empty strings — with id 0
// (omitted), empty and closed histories, and with and without a
// nextCursor — appendStateJSON's bytes, appended to a dirty reused
// destination, equal json.Marshal of the reference structs. The column
// layout encoder is checked the same way over random nasty layouts,
// the empty one (every column hidden) included. The rows themselves
// are TestEncoderMatchesEncodingJSON's.
func TestEncoderStateFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		entries, cursor := randomHistory(rng)
		id := int64(rng.Intn(3)) // 0 exercises omitempty
		next := ""
		if rng.Intn(2) == 0 {
			next = encodeCursor(cursorToken{Offset: rng.Intn(50), Limit: 1 + rng.Intn(9), Sig: rng.Uint32()})
		}
		want, err := json.Marshal(referenceState(id, entries, cursor, nil, next))
		if err != nil {
			t.Fatal(err)
		}
		// A dirty, reused destination: the encoder must append, not assume.
		got, err := appendStateJSON([]byte("junk"), id, entries, cursor, nil, nil, next)
		if err != nil {
			t.Fatal(err)
		}
		if got = got[len("junk"):]; !bytes.Equal(got, want) {
			t.Fatalf("state %d differs\nencoder: %s\nreference: %s", i, got, want)
		}

		var cols []etable.Column
		var ref []columnJSON
		for n := rng.Intn(5); n > 0; n-- {
			c := etable.Column{Kind: etable.ColumnKind(rng.Intn(3)), Name: nastyString(rng)}
			cols = append(cols, c)
			ref = append(ref, columnJSON{Name: c.Name, Kind: c.Kind.String()})
		}
		if want, err = json.Marshal(ref); err != nil {
			t.Fatal(err)
		}
		if got := appendColumns([]byte("junk"), cols)[len("junk"):]; !bytes.Equal(got, want) {
			t.Fatalf("layout %d differs\nencoder: %s\nreference: %s", i, got, want)
		}
	}
}

// TestAppendJSONStringEveryByte pins the escape table itself: every
// single byte, and every byte after a multi-byte lead, encodes as
// encoding/json encodes it — alone, and at every offset 0..24 of a
// 24-byte clean ASCII string, so each byte lands in every lane of the
// word-at-a-time scan: in a full word, in the overlapping last word
// and in the byte-loop tail.
func TestAppendJSONStringEveryByte(t *testing.T) {
	const clean = "abcdefghijklmnopqrstuvwx"
	for b := 0; b < 256; b++ {
		for _, probe := range []string{string([]byte{byte(b)}), "é" + string([]byte{byte(b)}) + "z", "\xe2\x80" + string([]byte{byte(b)})} {
			probes := []string{probe}
			for off := 0; off <= len(clean); off++ {
				probes = append(probes, clean[:off]+probe+clean[off:])
			}
			for _, s := range probes {
				want, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
					t.Errorf("%q: encoder %s, encoding/json %s", s, got, want)
				}
			}
		}
	}
}

// TestAppendStateJSONAllocs: encoding a window straight from the
// cursor into a buffer with room for it allocates nothing once the
// label fragments are built, whatever the kinds of its base cells —
// INT, FLOAT, BOOL and NULL are formatted in place, STRING copied — and
// whatever its references' label kinds.
func TestAppendStateJSONAllocs(t *testing.T) {
	g := oracleGraph(t, rand.New(rand.NewSource(4)))
	sess := session.New(g.Schema(), g)
	for _, table := range []string{"Papers", "Venues"} {
		if err := sess.Open(table); err != nil {
			t.Fatal(err)
		}
		entries, cursor := sess.Entries()
		res, err := sess.WindowCtx(context.Background(), 3, 20)
		if err != nil {
			t.Fatal(err)
		}
		err = sess.ReadWindow(context.Background(), 3, 20, func(w session.Window) error {
			buf, err := appendStateJSON(nil, 3, entries, cursor, &w, g, "next")
			if err != nil {
				return err
			}
			want, err := json.Marshal(referenceState(3, entries, cursor, res, "next"))
			if err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("%s: encoder %s\nreference %s", table, buf, want)
			}
			allocs := testing.AllocsPerRun(100, func() {
				buf, err = appendStateJSON(buf[:0], 3, entries, cursor, &w, g, "next")
			})
			if err != nil {
				return err
			}
			if allocs != 0 {
				t.Errorf("%s: appendStateJSON allocated %.1f objects/op, want 0", table, allocs)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStateResponsesMatchReference drives a real session through every
// state-bearing route — create, ops (sort, hide), GET with offset,
// limit 0 and a cursor, replay — and checks each response body against
// the reference encoding of the same state, and that Content-Length is
// set and right.
func TestStateResponsesMatchReference(t *testing.T) {
	tr, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	c := newStateClient(t, NewWithOptions(tr.Schema, tr.Instance, Options{PageSize: 2}))
	do, check := c.do, c.check
	body := do("POST", "/api/v1/sessions", "")
	var created struct {
		ID int64 `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	id := created.ID
	check("create (closed table)", body, id, 0, 2)
	base := fmt.Sprintf("/api/v1/sessions/%d", id)

	check("open", do("POST", base+"/ops", `{"op":"open","table":"Papers"}`), id, 0, 2)
	next := check("sort", do("POST", base+"/ops?limit=3", `{"op":"sort","column":"Authors","desc":true}`), id, 0, 3)
	if next == "" {
		t.Fatal("sorted first page issued no cursor")
	}
	check("cursor page", do("GET", base+"?cursor="+next, ""), id, 3, 3)
	check("offset page", do("GET", base+"?offset=4&limit=5", ""), id, 4, 5)
	check("empty window", do("GET", base+"?limit=0", ""), id, 0, 0)
	check("past the end", do("GET", base+"?offset=99", ""), id, 99, 2)
	check("hide", do("POST", base+"/ops", `{"op":"hide","column":"title"}`), id, 0, 2)
	check("sort by attribute", do("POST", base+"/ops", `{"op":"sort","attr":"year"}`), id, 0, 2)

	hist := do("GET", base+"/history", "")
	var log struct {
		Ops    json.RawMessage `json:"ops"`
		Cursor int             `json:"cursor"`
	}
	if err := json.Unmarshal(hist, &log); err != nil {
		t.Fatal(err)
	}
	check("replay", do("POST", base+"/replay", fmt.Sprintf(`{"ops":%s,"cursor":%d}`, log.Ops, log.Cursor)), id, 0, 2)
}
