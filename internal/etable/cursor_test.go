package etable

import (
	"testing"

	"repro/internal/lru"
	"repro/internal/pager"
	"repro/internal/tgm"
)

// TestCursorRefsAllocs: reading a window's references through a cursor
// allocates nothing on a heap presentation (the CSR segments and
// adjacency lists are returned as they are) and, on a spilled one, only
// the one buffer the cursor reuses for every cell, and its growth — not
// one slice per cell, as a fresh slice per spilled group did.
func TestCursorRefsAllocs(t *testing.T) {
	tr := planFixture(t)
	p := buildPattern(t, tr, "Papers",
		opSelect("year > 2000"),
		opAdd(tr, "Paper_Authors"),
		opAdd(tr, "Authors→Institutions"),
	)
	pol, metrics := testSpillPolicy(t, 64)
	pol.Pool = lru.New[pager.Key, [][]tgm.NodeID](1024) // every run stays resident once read
	e := NewExecutor(tr.Instance)
	// Spilled first: a capped prepare over a cached match would not spill.
	spilled, err := e.PrepareWithOpts(p, ExecOptions{MaxRows: 2, Spill: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	if metrics.Snapshot().Spills == 0 {
		t.Fatal("prepare over MaxRows with a spill policy stayed on the heap")
	}
	heap, err := e.PrepareWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name     string
		pr       *Presentation
		maxAlloc float64
	}{{"heap", heap, 0}, {"spilled", spilled, 8}} {
		pr := arm.pr
		lo, hi := pr.Bounds(0, 100)
		cells, refs := 0, 0
		read := func() {
			c, err := pr.Cursor(lo, hi, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cells, refs = 0, 0
			for c.Next() {
				for _, ci := range c.Columns() {
					if pr.Columns()[ci].Kind == ColBase {
						continue
					}
					ids, err := c.Refs(ci)
					if err != nil {
						t.Fatal(err)
					}
					cells++
					refs += len(ids)
				}
			}
		}
		read() // faults the spilled runs in
		allocs := testing.AllocsPerRun(20, read)
		t.Logf("%s: %d reference cells, %d refs, %.1f allocs per window", arm.name, cells, refs, allocs)
		if allocs > arm.maxAlloc {
			t.Errorf("%s: reading %d reference cells (%d refs) allocated %.1f objects, want ≤ %.0f",
				arm.name, cells, refs, allocs, arm.maxAlloc)
		}
		if cells < 100 || refs < 100 {
			t.Fatalf("%s: window too small to tell: %d cells, %d refs", arm.name, cells, refs)
		}
	}
}
