package etable

import (
	"context"
	"testing"
)

// TestCursorRefsAllocs: reading a window's references through a cursor
// allocates nothing — participating cells are computed into one pooled
// buffer the cursor borrows on its first Refs and returns at Close, and
// neighbor cells are the adjacency lists themselves — over depth-1 and
// depth-2 columns, on the prepared order and on a sorted view.
func TestCursorRefsAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr := planFixture(t)
	p := buildPattern(t, tr, "Papers",
		opSelect("year > 2000"),
		opAdd(tr, "Paper_Authors"),
		opAdd(tr, "Authors→Institutions"),
	)
	heap, err := NewCache(DefaultCacheEntries).Prepare(context.Background(), tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := heap.SortedView(SortSpec{Attr: heap.Columns()[0].Attr, Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		pr   *Presentation
	}{{"prepared", heap}, {"sorted", sorted}} {
		pr := arm.pr
		lo, hi := pr.Bounds(3, 100)
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
					cells++
					refs += len(c.Refs(ci))
				}
			}
		}
		read() // warms the scratch pool
		allocs := testing.AllocsPerRun(20, read)
		t.Logf("%s: %d reference cells, %d refs, %.1f allocs per window", arm.name, cells, refs, allocs)
		if allocs > 0 {
			t.Errorf("%s: reading %d reference cells (%d refs) allocated %.1f objects, want 0",
				arm.name, cells, refs, allocs)
		}
		if cells < 100 || refs < 100 {
			t.Fatalf("%s: window too small to tell: %d cells, %d refs", arm.name, cells, refs)
		}
	}
}
