package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/dataset"
	"repro/internal/tgm"
	"repro/internal/translate"
	"repro/internal/value"
)

// testGraph builds a small translated corpus.
func testGraph(t testing.TB) *translate.Result {
	t.Helper()
	db, err := dataset.Generate(dataset.Config{Papers: 150, Authors: 70, Institutions: 25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// saveBytes serializes a graph to memory.
func saveBytes(t testing.TB, g *tgm.InstanceGraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := Save(&buf, g)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Save reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestRoundTripGraphFidelity checks that a loaded graph is structurally
// identical to the saved one: schema (including out-edge order), every
// node's type, attributes, and label, and every adjacency list in
// order.
func TestRoundTripGraphFidelity(t *testing.T) {
	tr := testGraph(t)
	g := tr.Instance
	data := saveBytes(t, g)

	snap, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	lg := snap.Graph
	if !lg.Frozen() {
		t.Fatal("loaded graph is not frozen")
	}
	if snap.Info.Version != Version {
		t.Fatalf("Info.Version = %d, want %d", snap.Info.Version, Version)
	}
	if snap.Info.Nodes != g.NumNodes() || snap.Info.Edges != g.NumEdges() {
		t.Fatalf("Info counts (%d, %d) != graph (%d, %d)",
			snap.Info.Nodes, snap.Info.Edges, g.NumNodes(), g.NumEdges())
	}

	// Schema: node types in order, attrs, and — critically — per-source
	// out-edge order, which fixes neighbor-column order downstream.
	wantNT, gotNT := g.Schema().NodeTypes(), snap.Schema.NodeTypes()
	if len(wantNT) != len(gotNT) {
		t.Fatalf("node type count %d != %d", len(gotNT), len(wantNT))
	}
	for i := range wantNT {
		if !reflect.DeepEqual(*wantNT[i], *gotNT[i]) {
			t.Errorf("node type %d: %+v != %+v", i, *gotNT[i], *wantNT[i])
		}
		wantOut, gotOut := g.Schema().OutEdges(wantNT[i].Name), snap.Schema.OutEdges(wantNT[i].Name)
		if len(wantOut) != len(gotOut) {
			t.Fatalf("out edges of %q: %d != %d", wantNT[i].Name, len(gotOut), len(wantOut))
		}
		for j := range wantOut {
			if !reflect.DeepEqual(*wantOut[j], *gotOut[j]) {
				t.Errorf("out edge %q[%d]: %+v != %+v", wantNT[i].Name, j, *gotOut[j], *wantOut[j])
			}
		}
	}

	// Nodes: same IDs, types, attribute values, labels.
	if lg.NumNodes() != g.NumNodes() {
		t.Fatalf("node count %d != %d", lg.NumNodes(), g.NumNodes())
	}
	for i := 0; i < g.NumNodes(); i++ {
		want, got := g.Node(tgm.NodeID(i)), lg.Node(tgm.NodeID(i))
		if want.Type.Name != got.Type.Name {
			t.Fatalf("node %d type %q != %q", i, got.Type.Name, want.Type.Name)
		}
		for ai := range want.Type.Attrs {
			wv, werr := want.TryAttrAt(ai)
			gv, gerr := got.TryAttrAt(ai)
			if werr != nil || gerr != nil {
				t.Fatalf("node %d attr %d: errors %v, %v", i, ai, werr, gerr)
			}
			if !reflect.DeepEqual(wv, gv) {
				t.Fatalf("node %d attr %d: %v != %v", i, ai, gv, wv)
			}
		}
		if want.Label() != got.Label() {
			t.Fatalf("node %d label %q != %q", i, got.Label(), want.Label())
		}
	}

	// Edges: every adjacency list, in order, both directions.
	for _, et := range g.Schema().EdgeTypes() {
		if g.EdgeTypeCount(et.Name) != lg.EdgeTypeCount(et.Name) {
			t.Fatalf("edge type %q count %d != %d", et.Name,
				lg.EdgeTypeCount(et.Name), g.EdgeTypeCount(et.Name))
		}
		for _, src := range g.NodesOfType(et.Source) {
			want, got := g.Neighbors(src, et.Name), lg.Neighbors(src, et.Name)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("neighbors(%d, %q) %v != %v", src, et.Name, got, want)
			}
		}
	}
}

// TestSaveFileLoad exercises the file path round trip.
func TestSaveFileLoad(t *testing.T) {
	tr := testGraph(t)
	path := filepath.Join(t.TempDir(), "test.etsnap")
	n, err := SaveFile(path, tr.Instance)
	if err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	snap, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if snap.Info.Bytes != n {
		t.Fatalf("Info.Bytes = %d, SaveFile wrote %d", snap.Info.Bytes, n)
	}
	if snap.Graph.NumNodes() != tr.Instance.NumNodes() {
		t.Fatalf("node count %d != %d", snap.Graph.NumNodes(), tr.Instance.NumNodes())
	}
}

// TestResidentLoadRetainsNoFileBytes pins Decode's aliasing contract:
// once it returns, nothing the snapshot holds — a column, an adjacency
// array, an edge loader, a column source — references the input bytes,
// so they are collectable while the graph serves.
func TestResidentLoadRetainsNoFileBytes(t *testing.T) {
	tr := testGraph(t)
	data := saveBytes(t, tr.Instance)
	wp := weak.Make(&data[0])
	snap, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	data = nil
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("the decoded snapshot still references the file's bytes")
	}
	if snap.Graph.ColumnSourceAttached() {
		t.Fatal("a resident graph has a column source attached")
	}
	if snap.Graph.NumEdges() != tr.Instance.NumEdges() {
		t.Fatalf("edges %d != %d", snap.Graph.NumEdges(), tr.Instance.NumEdges())
	}
	runtime.KeepAlive(snap)
}

// TestSaveRejectsUnfrozen: snapshotting a mutable graph is an error,
// not a race.
func TestSaveRejectsUnfrozen(t *testing.T) {
	s := tgm.NewSchemaGraph()
	if _, err := s.AddNodeType(tgm.NodeType{
		Name: "T", Attrs: []tgm.Attr{{Name: "id"}}, Label: "id",
	}); err != nil {
		t.Fatal(err)
	}
	g := tgm.NewInstanceGraph(s)
	var buf bytes.Buffer
	if _, err := Save(&buf, g); err == nil {
		t.Fatal("Save accepted an unfrozen graph")
	}
}

// TestBadMagic: non-snapshot inputs fail with ErrBadMagic, including
// empty and truncated-before-header files.
func TestBadMagic(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("hello"),
		[]byte("ETSNAP something that is long enough to not be short"),
	} {
		if _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
			t.Errorf("Decode(%q) = %v, want ErrBadMagic", data, err)
		}
	}
}

// TestVersionSkew: a bumped version byte fails with *VersionError.
func TestVersionSkew(t *testing.T) {
	tr := testGraph(t)
	data := saveBytes(t, tr.Instance)
	data[8] = 99 // version field (uint32 LE at offset 8)
	var ve *VersionError
	if _, err := Decode(data); !errors.As(err, &ve) {
		t.Fatalf("Decode = %v, want *VersionError", err)
	} else if ve.Got != 99 || ve.Want != Version {
		t.Fatalf("VersionError{Got: %d, Want: %d}", ve.Got, ve.Want)
	}
}

// TestCorruptionDetected flips one byte at every offset stride across
// the file and checks decoding either fails typed (never panics) or —
// impossible here since every payload byte is checksummed — succeeds
// only for bytes outside any section.
func TestCorruptionDetected(t *testing.T) {
	tr := testGraph(t)
	data := saveBytes(t, tr.Instance)
	stride := len(data)/257 + 1
	for off := 16; off < len(data); off += stride {
		mut := bytes.Clone(data)
		mut[off] ^= 0x5a
		_, err := Decode(mut)
		if err == nil {
			t.Fatalf("flip at offset %d: decode succeeded on corrupt data", off)
		}
		var ce *CorruptError
		var ve *VersionError
		if !errors.As(err, &ce) && !errors.As(err, &ve) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("flip at offset %d: untyped error %T: %v", off, err, err)
		}
	}
}

// TestTruncationDetected truncates the file at several points; every
// prefix must fail typed.
func TestTruncationDetected(t *testing.T) {
	tr := testGraph(t)
	data := saveBytes(t, tr.Instance)
	for _, n := range []int{0, 4, 8, 15, 16, 40, len(data) / 3, len(data) - 1} {
		if n > len(data) {
			continue
		}
		_, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes: decode succeeded", n)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("truncation to %d: untyped error %T: %v", n, err, err)
		}
	}
}

// TestStatChecksummed: no open decodes STAT, but both residency
// policies still verify its checksum, so one flipped byte inside its
// payload fails Load and LazyLoad with a *CorruptError naming STAT.
func TestStatChecksummed(t *testing.T) {
	tr := testGraph(t)
	path := saveTempSnapshot(t, tr.Instance)
	info, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	var stat SectionInfo
	for _, s := range info.Sections {
		if s.Tag == secStats {
			stat = s
		}
	}
	if stat.Length == 0 {
		t.Fatalf("no STAT payload in %v", info.Sections)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[stat.Offset+stat.Length/2] ^= 0x5a
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, loadErr := Load(path)
	ls, lazyErr := LazyLoad(path, LazyOptions{})
	if lazyErr == nil {
		ls.Close()
	}
	for name, err := range map[string]error{"Load": loadErr, "LazyLoad": lazyErr} {
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != secStats {
			t.Errorf("%s with a flipped STAT byte: err = %v, want a *CorruptError naming %s", name, err, secStats)
		}
	}
}

// TestDeterministicBytes: saving the same graph twice produces
// identical bytes (the format has no map-iteration or timestamp
// nondeterminism), which makes snapshots diffable and cacheable.
func TestDeterministicBytes(t *testing.T) {
	tr := testGraph(t)
	a := saveBytes(t, tr.Instance)
	b := saveBytes(t, tr.Instance)
	if !bytes.Equal(a, b) {
		t.Fatal("two saves of one graph produced different bytes")
	}
}

// TestNodeNDV pins STAT's node part, which Save still writes for format
// version 2: per attribute, the number of distinct non-null values.
func TestNodeNDV(t *testing.T) {
	s := tgm.NewSchemaGraph()
	for _, nt := range []tgm.NodeType{
		{Name: "A", Label: "u", Attrs: []tgm.Attr{
			{Name: "k", Type: value.KindInt}, {Name: "u", Type: value.KindInt}, {Name: "s", Type: value.KindString}}},
		{Name: "Empty", Label: "id", Attrs: []tgm.Attr{{Name: "id", Type: value.KindInt}}},
	} {
		if _, err := s.AddNodeType(nt); err != nil {
			t.Fatal(err)
		}
	}
	g := tgm.NewInstanceGraph(s)
	for i := 0; i < 8; i++ {
		str := value.Null // s: NULL, then "x" and "y" alternating
		if i > 0 {
			str = value.Str([]string{"x", "y"}[i%2])
		}
		if _, err := g.AddNode("A", []value.V{value.Int(int64(i % 4)), value.Int(int64(i)), str}); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	for typ, want := range map[string][]int{"A": {4, 8, 2}, "Empty": {0}} {
		got, err := countNDV(g, s.NodeType(typ))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s NDV = %v, want %v", typ, got, want)
		}
	}
}
