package spill

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lru"
	"repro/internal/pager"
	"repro/internal/tgm"
)

func ids(vals ...int) []tgm.NodeID {
	out := make([]tgm.NodeID, len(vals))
	for i, v := range vals {
		out[i] = tgm.NodeID(v)
	}
	return out
}

// TestRunFileRoundTrip appends several multi-column runs and reads
// every one back byte-identical, through the pool and without one.
func TestRunFileRoundTrip(t *testing.T) {
	for _, usePool := range []bool{false, true} {
		var pool *lru.Cache[pager.Key, [][]tgm.NodeID]
		if usePool {
			pool = lru.New[pager.Key, [][]tgm.NodeID](2)
		}
		m := &Metrics{}
		rf, err := Create(Options{Dir: t.TempDir(), Cols: 2, Metrics: m, Pool: pool})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		defer rf.Close()

		runs := [][][]tgm.NodeID{
			{ids(1, 2, 3), ids(10, 20, 30)},
			{ids(4), ids(40)},
			{ids(5, 6), ids(50, 60)},
		}
		wantRows := 0
		for _, r := range runs {
			if err := rf.AppendRun(r); err != nil {
				t.Fatalf("AppendRun: %v", err)
			}
			wantRows += len(r[0])
		}
		if rf.Rows() != wantRows {
			t.Fatalf("Rows() = %d, want %d", rf.Rows(), wantRows)
		}
		if rf.NumRuns() != len(runs) {
			t.Fatalf("NumRuns() = %d, want %d", rf.NumRuns(), len(runs))
		}
		// Read out of order to exercise random access.
		for _, i := range []int{2, 0, 1, 0} {
			cols, err := rf.ReadRun(i)
			if err != nil {
				t.Fatalf("ReadRun(%d): %v", i, err)
			}
			for c := range cols {
				if len(cols[c]) != len(runs[i][c]) {
					t.Fatalf("run %d col %d: %d rows, want %d", i, c, len(cols[c]), len(runs[i][c]))
				}
				for r := range cols[c] {
					if cols[c][r] != runs[i][c][r] {
						t.Fatalf("run %d col %d row %d: %d, want %d", i, c, r, cols[c][r], runs[i][c][r])
					}
				}
			}
		}
		if m.Snapshot().Spills != 1 {
			t.Fatalf("Spills = %d, want 1", m.Snapshot().Spills)
		}
		if m.Snapshot().Faults == 0 {
			t.Fatal("expected at least one fault")
		}
		if m.Snapshot().RunBytes != rf.Bytes() {
			t.Fatalf("RunBytes = %d, want %d", m.Snapshot().RunBytes, rf.Bytes())
		}
	}
}

// TestRunForRow checks the directory's binary search over uneven runs.
func TestRunForRow(t *testing.T) {
	rf, err := Create(Options{Dir: t.TempDir(), Cols: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer rf.Close()
	for _, n := range []int{3, 1, 4} {
		col := make([]tgm.NodeID, n)
		if err := rf.AppendRun([][]tgm.NodeID{col}); err != nil {
			t.Fatalf("AppendRun: %v", err)
		}
	}
	want := []int{0, 0, 0, 1, 2, 2, 2, 2}
	for r, w := range want {
		if got := rf.RunForRow(r); got != w {
			t.Fatalf("RunForRow(%d) = %d, want %d", r, got, w)
		}
	}
}

// TestBudget verifies the shared byte cap rejects the append that would
// exceed it, without writing, and that concurrent accounting rolls
// back the failed reservation.
func TestBudget(t *testing.T) {
	b := &Budget{Limit: 200}
	rf, err := Create(Options{Dir: t.TempDir(), Cols: 1, Budget: b})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer rf.Close()
	small := [][]tgm.NodeID{make([]tgm.NodeID, 10)} // 16 + 40 bytes
	if err := rf.AppendRun(small); err != nil {
		t.Fatalf("first append should fit: %v", err)
	}
	big := [][]tgm.NodeID{make([]tgm.NodeID, 100)} // 16 + 400 bytes
	err = rf.AppendRun(big)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Limit != 200 {
		t.Fatalf("BudgetError.Limit = %d, want 200", be.Limit)
	}
	// The failed reservation must have rolled back: another small run
	// still fits.
	if err := rf.AppendRun(small); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if got := b.Used(); got != 2*56 {
		t.Fatalf("Used() = %d, want 112", got)
	}
}

// TestCorruptRun flips payload bytes and truncates the file; both must
// surface as *CorruptError, never a panic.
func TestCorruptRun(t *testing.T) {
	dir := t.TempDir()
	rf, err := Create(Options{Dir: dir, Cols: 1, Named: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer rf.Close()
	if err := rf.AppendRun([][]tgm.NodeID{ids(7, 8, 9)}); err != nil {
		t.Fatalf("AppendRun: %v", err)
	}
	if err := rf.AppendRun([][]tgm.NodeID{ids(1, 2)}); err != nil {
		t.Fatalf("AppendRun: %v", err)
	}

	// Byte-flip inside run 0's payload.
	f, err := os.OpenFile(rf.Name(), os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, runHeaderLen+1); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	var ce *CorruptError
	if _, err := rf.ReadRun(0); !errors.As(err, &ce) {
		t.Fatalf("byte flip: want *CorruptError, got %v", err)
	}
	if ce.Run != 0 || ce.Name == "" {
		t.Fatalf("CorruptError = %+v, want run 0 with a name", ce)
	}

	// Truncate away run 1 entirely.
	if err := f.Truncate(runHeaderLen + 4); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	f.Close()
	if _, err := rf.ReadRun(1); !errors.As(err, &ce) {
		t.Fatalf("truncate: want *CorruptError, got %v", err)
	}
}

// TestCloseRemovesNamedFile checks named files leave no residue and
// Close is idempotent.
func TestCloseRemovesNamedFile(t *testing.T) {
	dir := t.TempDir()
	rf, err := Create(Options{Dir: dir, Cols: 1, Named: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	name := rf.Name()
	if _, err := os.Stat(name); err != nil {
		t.Fatalf("named file missing while open: %v", err)
	}
	if err := rf.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := rf.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatalf("named file still present after Close: %v", err)
	}
	if err := rf.AppendRun([][]tgm.NodeID{ids(1)}); err == nil {
		t.Fatal("append after Close should fail")
	}
	if _, err := rf.ReadRun(0); err == nil {
		t.Fatal("read after Close should fail")
	}
}

// TestSweepDir reaps stale prefixed files and nothing else.
func TestSweepDir(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, namePrefix+"123.run")
	keep := filepath.Join(dir, "data.bin")
	for _, p := range []string{stale, keep} {
		if err := os.WriteFile(p, []byte("x"), 0o600); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, namePrefix+"dir"), 0o700); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	n, err := SweepDir(dir)
	if err != nil {
		t.Fatalf("SweepDir: %v", err)
	}
	if n != 1 {
		t.Fatalf("removed %d files, want 1", n)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale spill file survived the sweep")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("unrelated file was swept: %v", err)
	}
}

// TestAnonymousFileHasNoName verifies the default file mode leaves no
// directory entry for a crash to strand.
func TestAnonymousFileHasNoName(t *testing.T) {
	dir := t.TempDir()
	rf, err := Create(Options{Dir: dir, Cols: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer rf.Close()
	if rf.Name() != "" {
		t.Fatalf("anonymous file has a name: %q", rf.Name())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("anonymous file left a directory entry: %v", entries)
	}
	// The unnamed file still round-trips.
	if err := rf.AppendRun([][]tgm.NodeID{ids(42)}); err != nil {
		t.Fatalf("AppendRun: %v", err)
	}
	cols, err := rf.ReadRun(0)
	if err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if cols[0][0] != 42 {
		t.Fatalf("got %d, want 42", cols[0][0])
	}
}

// TestRaggedAndShapeErrors checks shape validation up front.
func TestRaggedAndShapeErrors(t *testing.T) {
	rf, err := Create(Options{Dir: t.TempDir(), Cols: 2})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer rf.Close()
	if err := rf.AppendRun([][]tgm.NodeID{ids(1)}); err == nil {
		t.Fatal("wrong column count accepted")
	}
	if err := rf.AppendRun([][]tgm.NodeID{ids(1, 2), ids(3)}); err == nil {
		t.Fatal("ragged columns accepted")
	}
	if _, err := Create(Options{Dir: t.TempDir(), Cols: 0}); err == nil {
		t.Fatal("zero columns accepted")
	}
}
