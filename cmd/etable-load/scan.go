package main

// A one-pass, allocation-free reader for the server's response bodies.
// The harness shares the host's two cores with the server it measures,
// and a page of the Papers table is 0.3–1.2 MB of JSON: decoding every
// response with encoding/json cost more CPU than the server spent
// producing it. The scanner walks the bytes once, folds what the oracle
// compares into a digest as it goes, and skips everything else.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
)

// stateView is what the harness reads from a response body: a session
// state (create, ops, replay, page) or a history export.
type stateView struct {
	ID         int64
	TotalRows  int
	NextCursor string
	Cursor     int // history cursor
	Rows       int
	// FirstNode is the first row's node id (valid when Rows > 0): the
	// entity a script "clicks".
	FirstNode int64
	// Ops is the raw op log of a history export (nil otherwise).
	Ops []byte
	// Digest is FNV-64a over the history cursor, every row's node id,
	// label (as encoded) and per-cell reference counts, and the op log.
	Digest uint64
}

var errMalformed = errors.New("malformed JSON")

// scanner is a cursor over one JSON document. The first error sticks;
// callers check err once at the end.
type scanner struct {
	b   []byte
	i   int
	err error
}

func (s *scanner) fail() {
	if s.err == nil {
		s.err = fmt.Errorf("%w at byte %d", errMalformed, s.i)
	}
	s.i = len(s.b)
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it (0 at end).
func (s *scanner) peek() byte {
	s.ws()
	if s.i >= len(s.b) {
		return 0
	}
	return s.b[s.i]
}

func (s *scanner) expect(c byte) {
	if s.peek() != c {
		s.fail()
		return
	}
	s.i++
}

// str consumes a string and returns its bytes as encoded (escapes
// left in place), without the quotes.
func (s *scanner) str() []byte {
	s.expect('"')
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			s.i += 2
		case '"':
			s.i++
			return s.b[start : s.i-1]
		default:
			s.i++
		}
	}
	s.fail()
	return nil
}

// num consumes an integer.
func (s *scanner) num() int64 {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var n int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		n = n*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	if s.i == start || s.i-start > 18 {
		s.fail()
	}
	if neg {
		return -n
	}
	return n
}

// enter consumes an opening bracket and reports whether the container
// has a first element; an empty container is consumed whole. A null in
// an array's place counts as an empty array.
func (s *scanner) enter(open byte) bool {
	if open == '[' && s.peek() == 'n' {
		s.skip()
		return false
	}
	s.expect(open)
	if c := s.peek(); c == open+2 { // ']' and '}' follow '[' and '{' by two
		s.i++
		return false
	}
	return s.err == nil
}

// more is called after an element: it consumes a comma and reports
// true, or consumes the closing bracket and reports false.
func (s *scanner) more(open byte) bool {
	if s.peek() == ',' {
		s.i++
		return s.err == nil
	}
	s.expect(open + 2)
	return false
}

// key consumes an object member's name and colon.
func (s *scanner) key() []byte {
	k := s.str()
	s.expect(':')
	return k
}

// skip consumes any value.
func (s *scanner) skip() {
	switch c := s.peek(); {
	case c == '"':
		s.str()
	case c == '{':
		for ok := s.enter('{'); ok; ok = s.more('{') {
			s.key()
			s.skip()
		}
	case c == '[':
		for ok := s.enter('['); ok; ok = s.more('[') {
			s.skip()
		}
	case c == 0:
		s.fail()
	default: // number, true, false, null
		for s.i < len(s.b) {
			switch s.b[s.i] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				return
			}
			s.i++
		}
	}
}

// digester folds what the oracle compares into FNV-64a.
type digester struct {
	h   hash.Hash64
	num [8]byte
}

func (d *digester) int(n int64) {
	binary.LittleEndian.PutUint64(d.num[:], uint64(n))
	d.h.Write(d.num[:])
}

// maxCells bounds the columns of a row the scanner keeps counts for; a
// table here has a dozen.
const maxCells = 64

// row consumes one element of "rows" and folds it into the digest:
// node id, label, cell count, per-cell reference counts — in that
// order, whatever order the encoder wrote the members in.
func (s *scanner) row(d *digester) (node int64) {
	var label []byte
	var counts [maxCells]int64
	cells := 0
	for ok := s.enter('{'); ok; ok = s.more('{') {
		switch string(s.key()) {
		case "node":
			node = s.num()
		case "label":
			label = s.str()
		case "cells":
			for ok := s.enter('['); ok; ok = s.more('[') {
				if cells == maxCells {
					s.fail()
					break
				}
				for ok := s.enter('{'); ok; ok = s.more('{') {
					if string(s.key()) == "count" {
						counts[cells] = s.num()
					} else {
						s.skip()
					}
				}
				cells++
			}
		default:
			s.skip()
		}
	}
	d.int(node)
	d.h.Write(label)
	d.int(int64(cells))
	for _, n := range counts[:cells] {
		d.int(n)
	}
	return node
}

// scanState reads one 2xx response body.
func scanState(body []byte) (*stateView, error) {
	v := &stateView{}
	d := &digester{h: fnv.New64a()}
	s := &scanner{b: body}
	if s.peek() != '{' {
		s.fail()
	}
	for ok := s.enter('{'); ok; ok = s.more('{') {
		switch string(s.key()) {
		case "id":
			v.ID = s.num()
		case "totalRows":
			v.TotalRows = int(s.num())
		case "cursor":
			v.Cursor = int(s.num())
		case "nextCursor":
			v.NextCursor = string(s.str())
		case "ops":
			start := s.i
			s.skip()
			v.Ops = append([]byte(nil), body[start:s.i]...)
		case "rows":
			for ok := s.enter('['); ok; ok = s.more('[') {
				if s.peek() != '{' {
					s.fail()
					break
				}
				if node := s.row(d); v.Rows == 0 {
					v.FirstNode = node
				}
				v.Rows++
			}
		default:
			s.skip()
		}
	}
	if s.err == nil && s.peek() != 0 {
		s.fail() // trailing bytes
	}
	if s.err != nil {
		return nil, s.err
	}
	// The rows are folded as they stream past; the scalars go last so
	// that their position in the body does not matter.
	d.int(int64(v.Cursor))
	d.h.Write(v.Ops)
	v.Digest = d.h.Sum64()
	return v, nil
}
