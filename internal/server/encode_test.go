package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/etable"
	"repro/internal/session"
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

// randomState builds one state's encoder inputs: a history of nasty
// actions over a nasty pattern and a window with random column layout
// (possibly none — every column hidden), random rows (possibly none)
// and cells of every shape.
func randomState(rng *rand.Rand) (entries []session.Entry, cursor int, res *etable.Result, next string) {
	pat := &etable.Pattern{Primary: "P", Nodes: []etable.PatternNode{
		{Key: "P", Type: "T", CondSrc: nastyString(rng)},
		{Key: nastyString(rng), Type: "U"},
	}, Edges: []etable.PatternEdge{{EdgeType: nastyString(rng), From: "P", To: "Q"}}}
	for n := rng.Intn(4); n > 0; n-- {
		entries = append(entries, session.Entry{Action: nastyString(rng), Pattern: pat})
	}
	cursor = len(entries) - 1
	if cursor < 0 || rng.Intn(8) == 0 {
		return entries, -1, nil, "" // closed table
	}
	cursor = rng.Intn(len(entries))
	res = &etable.Result{Pattern: pat}
	for n := rng.Intn(5); n > 0; n-- {
		res.Columns = append(res.Columns, etable.Column{
			Kind: etable.ColumnKind(rng.Intn(3)), Name: nastyString(rng)})
	}
	res.Rows = make([]etable.Row, rng.Intn(4))
	for ri := range res.Rows {
		row := etable.Row{Node: tgm.NodeID(rng.Int31()), Label: nastyString(rng)}
		for _, c := range res.Columns {
			var cell etable.Cell
			if c.Kind == etable.ColBase {
				cell.Value = nastyValue(rng)
			} else {
				for n := rng.Intn(3); n > 0; n-- {
					cell.Refs = append(cell.Refs, etable.EntityRef{ID: tgm.NodeID(rng.Int31()), Label: nastyString(rng)})
				}
			}
			row.Cells = append(row.Cells, cell)
		}
		res.Rows[ri] = row
	}
	res.Offset = rng.Intn(3)
	res.TotalRows = res.Offset + len(res.Rows) + rng.Intn(3)
	if rng.Intn(2) == 0 {
		next = encodeCursor(cursorToken{Offset: res.Offset + len(res.Rows), Limit: 1 + rng.Intn(9), Sig: rng.Uint32()})
	}
	return entries, cursor, res, next
}

// TestEncoderMatchesEncodingJSON is the encoder fuzz: over random
// states full of quotes, backslashes, HTML characters, control bytes,
// U+2028/9, invalid UTF-8, empty strings, empty windows, empty column
// layouts and closed tables, appendStateJSON's bytes equal json.Marshal
// of the reference structs.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		entries, cursor, res, next := randomState(rng)
		id := int64(rng.Intn(3)) // 0 exercises omitempty
		want, err := json.Marshal(referenceState(id, entries, cursor, res, next))
		if err != nil {
			t.Fatal(err)
		}
		// A dirty, reused destination: the encoder must append, not assume.
		got := appendStateJSON([]byte("junk"), id, entries, cursor, res, next)[len("junk"):]
		if !bytes.Equal(got, want) {
			t.Fatalf("state %d differs\nencoder: %s\nreference: %s", i, got, want)
		}
	}
}

// TestAppendJSONStringEveryByte pins the escape table itself: every
// single byte, and every byte after a multi-byte lead, encodes as
// encoding/json encodes it.
func TestAppendJSONStringEveryByte(t *testing.T) {
	for b := 0; b < 256; b++ {
		for _, s := range []string{string([]byte{byte(b)}), "é" + string([]byte{byte(b)}) + "z", "\xe2\x80" + string([]byte{byte(b)})} {
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
	srv := NewWithOptions(tr.Schema, tr.Instance, Options{PageSize: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	do := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
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
	// session (same window, so the memoized Result) and compares.
	check := func(name string, got []byte, id int64, offset, limit int) string {
		t.Helper()
		srv.mu.RLock()
		sess := srv.sessions[id].sess
		srv.mu.RUnlock()
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
