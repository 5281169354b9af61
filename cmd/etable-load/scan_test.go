package main

import (
	"encoding/json"
	"errors"
	"testing"
)

// A state body with everything the scanner must skip or survive:
// escaped quotes and backslashes in strings, nested refs, null and
// empty arrays, members in an order the server does not use.
const stateBody = ` {"pattern":"*Papers{title = 'a \"b\" \\\\'}","id":17,
 "columns":[{"name":"id","kind":"base attribute"},{"name":"Authors","kind":"neighbor node"}],
 "rows":[
  {"label":"Learning \"joins\" \\ fast","node":19419,"cells":[{"value":"1","count":0},{"count":2,"refs":[{"id":3,"label":"A] }"},{"id":4,"label":"B"}]}]},
  {"node":7,"label":"","cells":[{"count":0},{"refs":null,"count":11}]}
 ],
 "totalRows":38000,"offset":50,"nextCursor":"eyJvIjo1MH0","history":[{"action":"Open 'Papers' table"}],"cursor":3}
`

func TestScanStateReadsWhatEncodingJSONReads(t *testing.T) {
	v, err := scanState([]byte(stateBody))
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		ID         int64
		TotalRows  int
		NextCursor string
		Cursor     int
		Rows       []struct{ Node int64 }
	}
	if err := json.Unmarshal([]byte(stateBody), &ref); err != nil {
		t.Fatal(err)
	}
	if v.ID != ref.ID || v.TotalRows != ref.TotalRows || v.NextCursor != ref.NextCursor ||
		v.Cursor != ref.Cursor || v.Rows != len(ref.Rows) || v.FirstNode != ref.Rows[0].Node || v.Ops != nil {
		t.Errorf("scanState = %+v, encoding/json = %+v", v, ref)
	}
}

func TestScanStateDigest(t *testing.T) {
	digest := func(body string) uint64 {
		t.Helper()
		v, err := scanState([]byte(body))
		if err != nil {
			t.Fatalf("%v in %s", err, body)
		}
		return v.Digest
	}
	base := `{"rows":[{"node":1,"label":"x","cells":[{"count":2},{"count":0}]}],"totalRows":1,"cursor":0}`
	same := []string{
		// Member order, whitespace, and fields the oracle does not compare.
		`{"cursor":0,"totalRows":1,"rows":[{"cells":[{"refs":[{"id":9}],"count":2},{"count":0,"value":"v"}],"label":"x","node":1}]}`,
		"{ \"rows\" : [ { \"node\" : 1 , \"label\" : \"x\" , \"cells\" : [ { \"count\" : 2 } , { \"count\" : 0 } ] } ] , \"cursor\" : 0 , \"id\" : 5 }",
	}
	for _, b := range same {
		if digest(b) != digest(base) {
			t.Errorf("digest differs for an equivalent body: %s", b)
		}
	}
	different := []string{
		`{"rows":[{"node":2,"label":"x","cells":[{"count":2},{"count":0}]}],"cursor":0}`,
		`{"rows":[{"node":1,"label":"y","cells":[{"count":2},{"count":0}]}],"cursor":0}`,
		`{"rows":[{"node":1,"label":"x","cells":[{"count":0},{"count":2}]}],"cursor":0}`,
		`{"rows":[{"node":1,"label":"x","cells":[{"count":2}]}],"cursor":0}`,
		`{"rows":[{"node":1,"label":"x","cells":[{"count":2},{"count":0}]}],"cursor":1}`,
		`{"rows":[],"cursor":0}`,
	}
	for _, b := range different {
		if digest(b) == digest(base) {
			t.Errorf("digest does not see the difference in %s", b)
		}
	}
	// A history export: the op log is part of the digest and kept raw.
	h1, err := scanState([]byte(`{"id":1,"entries":[],"ops":[{"op":"open","table":"Papers"}],"cursor":0}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(h1.Ops) != `[{"op":"open","table":"Papers"}]` {
		t.Errorf("ops = %s", h1.Ops)
	}
	if h1.Digest == digest(`{"id":1,"entries":[],"ops":[{"op":"open","table":"Authors"}],"cursor":0}`) {
		t.Error("digest does not cover the op log")
	}
}

func TestScanStateRejectsMalformedBodies(t *testing.T) {
	for _, body := range []string{
		``, `[]`, `{`, `{"rows":[{"node":1,"label":"x"`, `{"rows":[{"node":"one"}]}`, `{"totalRows":}`,
		`{"id":1} trailing`, `{"nextCursor":"abc}`, `{"rows":{"node":1}}`,
	} {
		if _, err := scanState([]byte(body)); !errors.Is(err, errMalformed) {
			t.Errorf("scanState(%q) = %v, want errMalformed", body, err)
		}
	}
}
