package registry

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/etable"
	"repro/internal/snapshot"
	"repro/internal/translate"
)

// buildCorpus translates a small corpus.
func buildCorpus(t testing.TB, papers int, seed int64) *translate.Result {
	t.Helper()
	db, err := dataset.Generate(dataset.Config{Papers: papers, Authors: papers / 2, Institutions: 20, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// writeSnapshot saves a corpus to a temp .etsnap file.
func writeSnapshot(t testing.TB, tr *translate.Result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.etsnap")
	if _, err := snapshot.SaveFile(path, tr.Instance); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegistration(t *testing.T) {
	tr := buildCorpus(t, 50, 1)
	r := New(Options{})

	if r.Default() != nil {
		t.Fatal("empty registry has a default")
	}
	if _, err := r.AddGraph("", tr.Schema, tr.Instance); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := r.AddSnapshot("x", "", 0); err == nil {
		t.Fatal("empty path accepted")
	}

	a, err := r.AddGraph("alpha", tr.Schema, tr.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddGraph("alpha", tr.Schema, tr.Instance); err == nil {
		t.Fatal("duplicate name accepted")
	}
	b, err := r.AddSnapshot("beta", writeSnapshot(t, tr), 0)
	if err != nil {
		t.Fatal(err)
	}

	// The first added is the default.
	if r.Default() != a {
		t.Fatal("first dataset is not the default")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("Names() = %v", names)
	}

	// Eager datasets are loaded from the start, with no load metrics.
	if !a.Loaded() || a.Graph() != tr.Instance || a.Schema() != tr.Schema {
		t.Fatal("eager dataset not resident")
	}
	if bytes, dur := a.LoadMetrics(); bytes != 0 || dur != 0 {
		t.Fatal("eager dataset has snapshot load metrics")
	}
	// Lazy datasets are not.
	if b.Loaded() || b.Graph() != nil {
		t.Fatal("lazy dataset resident before Ensure")
	}
}

// TestLazyLoadSingleflight hammers Ensure from many goroutines; all
// must succeed and observe one identical graph. Run under -race.
func TestLazyLoadSingleflight(t *testing.T) {
	tr := buildCorpus(t, 60, 2)
	r := New(Options{})
	ds, err := r.AddSnapshot("lazy", writeSnapshot(t, tr), 0)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	var wg sync.WaitGroup
	graphs := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ds.Ensure(context.Background()); err != nil {
				t.Error(err)
				return
			}
			graphs[i] = ds.Graph()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if graphs[i] != graphs[0] {
			t.Fatalf("goroutine %d observed a different graph", i)
		}
	}
	if !ds.Loaded() {
		t.Fatal("not loaded after Ensure")
	}
	if bytes, dur := ds.LoadMetrics(); bytes <= 0 || dur <= 0 {
		t.Fatalf("load metrics (%d bytes, %v) not recorded", bytes, dur)
	}
	if ds.Graph().NumNodes() != tr.Instance.NumNodes() {
		t.Fatal("loaded graph has wrong node count")
	}
}

// TestFailedLoadRetries: a failed load is delivered to that attempt's
// callers but is not sticky — once the file is fixed, the next Ensure
// succeeds. The path is a symlink so the test can swap the target.
func TestFailedLoadRetries(t *testing.T) {
	tr := buildCorpus(t, 40, 3)
	dir := t.TempDir()
	good := writeSnapshot(t, tr)
	bad := filepath.Join(dir, "bad.etsnap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "current.etsnap")
	if err := os.Symlink(bad, link); err != nil {
		t.Skipf("symlink unavailable: %v", err)
	}

	r := New(Options{})
	ds, err := r.AddSnapshot("flaky", link, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ensure(context.Background()); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Fatalf("Ensure on bad file = %v, want ErrBadMagic", err)
	}
	if ds.Loaded() {
		t.Fatal("failed load marked dataset loaded")
	}

	if err := os.Remove(link); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(good, link); err != nil {
		t.Fatal(err)
	}
	if err := ds.Ensure(context.Background()); err != nil {
		t.Fatalf("Ensure after fix: %v", err)
	}
	if !ds.Loaded() {
		t.Fatal("dataset not loaded after successful retry")
	}
}

// TestDatasetIsolation: queries on one dataset leave the other's
// execution cache and stats untouched.
func TestDatasetIsolation(t *testing.T) {
	trA := buildCorpus(t, 80, 10)
	trB := buildCorpus(t, 80, 11)
	r := New(Options{CacheEntries: 64})
	a, err := r.AddGraph("a", trA.Schema, trA.Instance)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.AddGraph("b", trB.Schema, trB.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cache() == b.Cache() {
		t.Fatal("datasets share an execution cache")
	}

	// Run the same pattern twice against dataset a through its cache.
	p, err := etable.Initiate(trA.Schema, "Papers")
	if err != nil {
		t.Fatal(err)
	}
	p, err = etable.Add(trA.Schema, p, "Paper_Authors")
	if err != nil {
		t.Fatal(err)
	}
	ex := etable.NewSharedExecutor(a.Graph(), a.Cache())
	for i := 0; i < 2; i++ {
		if _, err := ex.PrepareWithOpts(p, etable.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// Dataset a's cache saw traffic; dataset b's saw none.
	if a.Cache().Misses() == 0 || a.Cache().Hits() == 0 {
		t.Fatalf("dataset a execution cache: %d hits, %d misses, want both > 0", a.Cache().Hits(), a.Cache().Misses())
	}
	if b.Cache().Hits() != 0 || b.Cache().Misses() != 0 {
		t.Fatal("dataset b execution cache polluted")
	}
}

// TestOutOfCoreDataset: a dataset registered with a pager budget
// boots through LazyLoad — header info is available before any load,
// pager telemetry appears once queries fault columns in, and the graph
// serves attributes identically to an eager load of the same file.
func TestOutOfCoreDataset(t *testing.T) {
	tr := buildCorpus(t, 60, 5)
	path := writeSnapshot(t, tr)
	r := New(Options{})
	d, err := r.AddSnapshot("ooc", path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Lazy() {
		t.Fatal("Lazy() = false")
	}

	// Registration inspected the header: size and sections known before
	// any load, and no pager yet.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := d.FileInfo()
	if !ok || info.Bytes != st.Size() || len(info.Sections) == 0 {
		t.Fatalf("FileInfo = %+v, %v; want header info at registration", info, ok)
	}
	if info.Nodes != tr.Instance.NumNodes() || info.Edges != tr.Instance.NumEdges() {
		t.Fatalf("FileInfo counts (%d, %d) != graph (%d, %d)",
			info.Nodes, info.Edges, tr.Instance.NumNodes(), tr.Instance.NumEdges())
	}
	if _, _, ok := d.PagerStats(); ok {
		t.Fatal("PagerStats available before load")
	}

	if err := d.Ensure(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !d.Loaded() || d.Graph() == nil {
		t.Fatal("lazy dataset not resident after Ensure")
	}
	ps, total, ok := d.PagerStats()
	if !ok || ps.Capacity != 2 || total == 0 {
		t.Fatalf("PagerStats = %+v, %d, %v", ps, total, ok)
	}
	if ps.Misses != 0 {
		t.Fatalf("boot faulted %d columns before any query", ps.Misses)
	}

	// Query an attribute column; the fault shows up in telemetry and the
	// value matches the source graph.
	g := d.Graph()
	id := g.NodesOfType("Papers")[0]
	got, err := g.Node(id).TryAttrAt(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Instance.Node(id).TryAttrAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("lazy attr = %v, want %v", got, want)
	}
	if ps, _, _ := d.PagerStats(); ps.Misses == 0 || ps.Len == 0 {
		t.Fatalf("query faulted nothing: %+v", ps)
	}

	// A registered-but-missing file defers its error to Ensure.
	m, err := r.AddSnapshot("ghost", filepath.Join(t.TempDir(), "missing.etsnap"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.FileInfo(); ok {
		t.Fatal("FileInfo ok for a missing file")
	}
	if err := m.Ensure(context.Background()); err == nil {
		t.Fatal("Ensure succeeded on a missing file")
	}
}
