package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pager"
	"repro/internal/stats"
	"repro/internal/tgm"
)

// saveTempSnapshot writes the test graph to a temp .etsnap file.
func saveTempSnapshot(t testing.TB, g *tgm.InstanceGraph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lazy.etsnap")
	if _, err := SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	return path
}

// TestLazyLoadFidelity: a lazily opened graph faults every column in
// through a pool smaller than the column count and still serves every
// attribute, label, and adjacency list identically to the saved graph.
func TestLazyLoadFidelity(t *testing.T) {
	tr := testGraph(t)
	g := tr.Instance
	path := saveTempSnapshot(t, g)

	ls, err := LazyLoad(path, LazyOptions{PoolSections: 2})
	if err != nil {
		t.Fatalf("LazyLoad: %v", err)
	}
	defer ls.Close()
	lg := ls.Graph
	if !lg.Frozen() {
		t.Fatal("lazy graph is not frozen")
	}
	if !lg.ColumnSourceAttached() {
		t.Fatal("lazy graph has no column source")
	}
	if lg.NumNodes() != g.NumNodes() || lg.NumEdges() != g.NumEdges() {
		t.Fatalf("counts (%d, %d) != (%d, %d)",
			lg.NumNodes(), lg.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if st, total := ls.PagerStats(); st.Misses != 0 || st.Len != 0 || total == 0 {
		t.Fatalf("open already faulted columns: %+v (total %d)", st, total)
	}

	// Full sweep: every node, every attribute, every label, both via the
	// error-reporting and the convenience accessors.
	for i := 0; i < g.NumNodes(); i++ {
		want, got := g.Node(tgm.NodeID(i)), lg.Node(tgm.NodeID(i))
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
	for _, et := range g.Schema().EdgeTypes() {
		for _, src := range g.NodesOfType(et.Source) {
			if !reflect.DeepEqual(g.Neighbors(src, et.Name), lg.Neighbors(src, et.Name)) {
				t.Fatalf("neighbors(%d, %q) diverge", src, et.Name)
			}
		}
	}

	// The sweep touched more columns than the budget: the pool must have
	// faulted them all, evicted down to the budget, and stayed bounded.
	st, total := ls.PagerStats()
	if st.Capacity != 2 {
		t.Fatalf("Capacity = %d, want 2", st.Capacity)
	}
	if st.Len > st.Capacity {
		t.Fatalf("Len %d exceeds capacity %d", st.Len, st.Capacity)
	}
	if st.Len >= total {
		t.Fatalf("Len %d not out-of-core (total %d sections)", st.Len, total)
	}
	if int(st.Misses) < total {
		t.Fatalf("Misses = %d, want >= %d (every section touched)", st.Misses, total)
	}
	if st.Evictions == 0 {
		t.Fatal("sweep past the budget caused no evictions")
	}
	if st.LoadNanos <= 0 {
		t.Fatal("LoadNanos not accounted")
	}
}

// TestLazyLoadStats: the statistics section decodes on the lazy path
// too and is published as the graph's statistics, so reading them
// collects nothing: it faults no column and loads no edge type.
func TestLazyLoadStats(t *testing.T) {
	tr := testGraph(t)
	path := saveTempSnapshot(t, tr.Instance)
	ls, err := LazyLoad(path, LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	// Attach returns the statistics a graph already holds: the
	// sentinel comes back only if the load published none.
	if sentinel := new(stats.Graph); stats.Attach(ls.Graph, sentinel) == sentinel {
		t.Fatal("lazy graph has no published statistics")
	}
	if !reflect.DeepEqual(stats.For(ls.Graph).Edges, stats.For(tr.Instance).Edges) {
		t.Error("lazy-loaded statistics differ from fresh statistics")
	}
	if st, _ := ls.PagerStats(); st.Misses != 0 {
		t.Fatalf("attaching statistics faulted %d columns", st.Misses)
	}
	// An edge type first traversed after Close fails with a typed
	// error; it must not read the unmapped file.
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	et := ls.Schema.EdgeTypes()[0].Name
	if err := ls.Graph.Adjacency(et).Ensure(); !errors.Is(err, pager.ErrClosed) {
		t.Fatalf("Ensure(%q) after Close = %v, want pager.ErrClosed", et, err)
	}
}

// TestLazyCorruptColumn is the byte-flip drill: corrupting one column
// section that was never faulted must (a) keep LazyLoad succeeding,
// (b) surface a typed *CorruptError — never a panic — from the first
// query that faults the damaged column, (c) leave other columns
// servable, and (d) not poison the pool: repairing the file in place
// makes the very next fault of the same column succeed, without
// reopening the snapshot.
func TestLazyCorruptColumn(t *testing.T) {
	tr := testGraph(t)
	path := saveTempSnapshot(t, tr.Instance)

	ls, err := LazyLoad(path, LazyOptions{PoolSections: 2})
	if err != nil {
		t.Fatalf("LazyLoad: %v", err)
	}
	defer ls.Close()

	// Pick a victim column via the (package-internal) directory: the
	// second attribute of the node type with the most attributes.
	var victimType string
	var victimAttr int
	for name, tc := range ls.src.types {
		if len(tc.cols) > 1 && tc.rows > 0 {
			victimType, victimAttr = name, 1
			break
		}
	}
	if victimType == "" {
		t.Fatal("fixture has no multi-attribute node type")
	}
	cm := ls.src.types[victimType].cols[victimAttr]
	flipOff := int64(ls.src.ncolOff + cm.off + cm.length/2)

	// Flip one payload byte in place (the column is still un-faulted).
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig := make([]byte, 1)
	if _, err := f.ReadAt(orig, flipOff); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{orig[0] ^ 0x5a}, flipOff); err != nil {
		t.Fatal(err)
	}

	node := ls.Graph.NodesOfType(victimType)[0]
	fault := func() error {
		_, err := ls.Graph.Node(node).TryAttrAt(victimAttr)
		return err
	}
	var ce *CorruptError
	if err := fault(); !errors.As(err, &ce) {
		t.Fatalf("faulting corrupted column = %v, want *CorruptError", err)
	}
	// Other columns of the same type still serve.
	if _, err := ls.Graph.Node(node).TryAttrAt(0); err != nil {
		t.Fatalf("sibling column poisoned: %v", err)
	}
	// Still corrupt on retry (the error is re-detected, not cached).
	if err := fault(); !errors.As(err, &ce) {
		t.Fatalf("second fault = %v, want *CorruptError", err)
	}

	// Repair in place; the next fault must succeed through the same
	// open snapshot (errors are not sticky in the pool).
	if _, err := f.WriteAt(orig, flipOff); err != nil {
		t.Fatal(err)
	}
	v, err := ls.Graph.Node(node).TryAttrAt(victimAttr)
	if err != nil {
		t.Fatalf("fault after repair = %v, want success", err)
	}
	want, err := tr.Instance.Node(node).TryAttrAt(victimAttr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("repaired column decodes %v, want %v", v, want)
	}
}

// TestLazyLoadTyped: lazy opens fail with the same typed errors as
// eager ones on bad magic, version skew, and skeleton corruption.
func TestLazyLoadTyped(t *testing.T) {
	tr := testGraph(t)
	path := saveTempSnapshot(t, tr.Instance)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	write := func(mut func([]byte)) string {
		p := filepath.Join(t.TempDir(), "mut.etsnap")
		b := append([]byte(nil), data...)
		mut(b)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if _, err := LazyLoad(write(func(b []byte) { b[0] = 'X' }), LazyOptions{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	var ve *VersionError
	if _, err := LazyLoad(write(func(b []byte) { b[8] = 99 }), LazyOptions{}); !errors.As(err, &ve) {
		t.Fatalf("version skew: %v", err)
	}
	// Damage the section table itself (offset field of entry 0).
	var ce *CorruptError
	if _, err := LazyLoad(write(func(b []byte) { b[headerFixed+4] ^= 0xff }), LazyOptions{}); !errors.As(err, &ce) {
		t.Fatalf("section table corruption: %v", err)
	}
}

// TestReadInfo: the no-load inspection reports file size, section
// count, and graph counts — and, because it never reads column bytes,
// succeeds even when NCOL is corrupted.
func TestReadInfo(t *testing.T) {
	tr := testGraph(t)
	g := tr.Instance
	path := saveTempSnapshot(t, g)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	info, err := ReadInfo(path)
	if err != nil {
		t.Fatalf("ReadInfo: %v", err)
	}
	if info.Bytes != st.Size() {
		t.Fatalf("Bytes = %d, want %d", info.Bytes, st.Size())
	}
	if info.Version != Version {
		t.Fatalf("Version = %d, want %d", info.Version, Version)
	}
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("counts (%d, %d) != (%d, %d)", info.Nodes, info.Edges, g.NumNodes(), g.NumEdges())
	}
	tags := map[string]bool{}
	for _, s := range info.Sections {
		tags[s.Tag] = true
	}
	for _, want := range []string{secMeta, secSchema, secSkel, secCols, secEdges, secStats} {
		if !tags[want] {
			t.Fatalf("section %q missing from %v", want, info.Sections)
		}
	}

	// Corrupt the middle of NCOL: ReadInfo must not notice (it reads
	// only the header, table, and META payload).
	var ncol SectionInfo
	for _, s := range info.Sections {
		if s.Tag == secCols {
			ncol = s
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, int64(ncol.Offset+ncol.Length/2)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ReadInfo(path); err != nil {
		t.Fatalf("ReadInfo read column bytes it should skip: %v", err)
	}

	if _, err := ReadInfo(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("ReadInfo succeeded on a missing file")
	}
}
