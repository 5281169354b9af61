package graphrel

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/lru"
	"repro/internal/pager"
	"repro/internal/spill"
	"repro/internal/tgm"
)

// Spill-to-disk execution: the pipeline breakers' external forms. When
// a presentation fold crosses the row threshold, its state overflows to
// temp-file runs (internal/spill) and faults back through the pager
// instead of failing with a RowLimitError. Only what a presentation
// reads back is written — the matched batches themselves are folded and
// dropped:
//
//   - ExternalGroupFold is the sort-merge external form of a
//     column's Groups: pair chunks are sorted, written as sorted runs,
//     and k-way merged with dedup into a values file plus an in-memory
//     group directory (SpilledGroups) — Count is memory-only, Refs
//     faults. The merge visits groups in ascending order, so Finish
//     also returns the group keys ascending: for a fold grouped by the
//     primary, exactly the canonical row order the presentation wants.
//
// All files of one execution share one byte budget (the
// -max-spill-bytes hard cap); exhausting it surfaces as the same
// *RowLimitError the row cap produces — spilling survives the row
// threshold, it does not grant unbounded disk.

// spillRunRows is the default rows per run: large enough that a page
// fault amortizes its seek + CRC over many rows, small enough that a
// handful of resident runs stay far below any sane memory limit
// (32768 rows × 4 bytes ≈ 128 KiB per column).
const spillRunRows = 32768

// SpillPolicy configures spill-to-disk execution for one session or
// call site. The zero value is unusable; a nil *SpillPolicy disables
// spilling (oversized results keep failing with RowLimitError).
type SpillPolicy struct {
	// Dir is the spill directory; "" uses the system temp directory.
	Dir string
	// MaxBytes caps the bytes one execution may spill (0 = unbounded).
	// Exceeding it fails with *RowLimitError — the row cap's 413
	// semantics, preserved at the disk tier.
	MaxBytes int64
	// Pool bounds the decoded-run residency of everything spilled
	// under this policy; nil decodes on every fault.
	Pool *lru.Cache[pager.Key, [][]tgm.NodeID]
	// Metrics receives spill telemetry; nil counts nothing.
	Metrics *spill.Metrics
	// Named keeps spill files visibly on disk until closed (tests and
	// debugging; production uses anonymous files).
	Named bool
	// RunRows overrides the rows per run (0 = spillRunRows). Tests
	// shrink it to force multi-run state on small fixtures.
	RunRows int
}

func (p *SpillPolicy) runRows() int {
	if p == nil || p.RunRows <= 0 {
		return spillRunRows
	}
	return p.RunRows
}

// NewBudget returns the byte budget for one execution under this
// policy. Every run file of that execution must share the returned
// budget.
func (p *SpillPolicy) NewBudget() *spill.Budget {
	if p == nil || p.MaxBytes <= 0 {
		return nil
	}
	return &spill.Budget{Limit: p.MaxBytes}
}

func (p *SpillPolicy) fileOptions(cols int, budget *spill.Budget) spill.Options {
	return spill.Options{
		Dir: p.Dir, Cols: cols,
		Metrics: p.Metrics, Budget: budget, Pool: p.Pool, Named: p.Named,
	}
}

// groupLoc locates one group's values in a SpilledGroups values file.
type groupLoc struct {
	off int // global row offset in the values file
	n   int32
}

// SpilledGroups is the external form of a per-column grouping
// (Groups): an in-memory directory from group node to its
// value span, and a values file read through the pager. Count is
// memory-only (the sort layer pays no IO); Refs faults in the covering
// runs.
type SpilledGroups struct {
	rf  *spill.RunFile
	col int // which run column holds the values
	dir map[tgm.NodeID]groupLoc
}

// Count returns the number of distinct values grouped under id — no
// IO, the sort key's path.
func (sg *SpilledGroups) Count(id tgm.NodeID) int { return int(sg.dir[id].n) }

// Groups returns the number of distinct groups.
func (sg *SpilledGroups) Groups() int { return len(sg.dir) }

// Refs reads id's values (ascending, deduplicated — the same contract
// as Groups) from the values file into *buf, growing it
// as needed, and returns them. A caller that passes the same buffer
// back for every cell reads a window's groups without allocating once
// the buffer has grown to the largest group.
func (sg *SpilledGroups) Refs(buf *[]tgm.NodeID, id tgm.NodeID) ([]tgm.NodeID, error) {
	dst := (*buf)[:0]
	defer func() { *buf = dst }()
	loc, ok := sg.dir[id]
	if !ok {
		return dst, nil
	}
	end := loc.off + int(loc.n)
	for ri, row := sg.rf.RunForRow(loc.off), loc.off; row < end; ri++ {
		meta := sg.rf.Run(ri)
		cols, err := sg.rf.ReadRun(ri)
		if err != nil {
			return dst, err
		}
		lo := row - meta.StartRow
		hi := min(meta.Rows, end-meta.StartRow)
		dst = append(dst, cols[sg.col][lo:hi]...)
		row = meta.StartRow + hi
	}
	return dst, nil
}

// Close releases the values file.
func (sg *SpilledGroups) Close() error { return sg.rf.Close() }

// ExternalGroupFold is the sort-merge external form of Groups:
// (group, value) pairs accumulate in a bounded chunk, each full chunk
// is sorted and written as one sorted run, and Finish k-way merges the
// runs with duplicate elimination into a SpilledGroups. Single-writer.
type ExternalGroupFold struct {
	pol     *SpillPolicy
	budget  *spill.Budget
	rf      *spill.RunFile // 2-column sorted pair runs: (group, value)
	bufG    []tgm.NodeID
	bufV    []tgm.NodeID
	runRows int
}

// NewExternalGroupFold opens an external group fold under the policy
// and shared budget.
func NewExternalGroupFold(pol *SpillPolicy, budget *spill.Budget) (*ExternalGroupFold, error) {
	if pol == nil {
		return nil, fmt.Errorf("graphrel: nil spill policy")
	}
	rf, err := spill.Create(pol.fileOptions(2, budget))
	if err != nil {
		return nil, err
	}
	return &ExternalGroupFold{pol: pol, budget: budget, rf: rf, runRows: pol.runRows()}, nil
}

// Append folds r's (groupAttr, valueAttr) co-occurrence pairs, one
// batch of the stream at a time.
func (f *ExternalGroupFold) Append(r *Relation, groupAttr, valueAttr string) error {
	gi := r.AttrIndex(groupAttr)
	if gi < 0 {
		return fmt.Errorf("graphrel: no attribute %q", groupAttr)
	}
	vi := r.AttrIndex(valueAttr)
	if vi < 0 {
		return fmt.Errorf("graphrel: no attribute %q", valueAttr)
	}
	f.bufG = append(f.bufG, r.cols[gi]...)
	f.bufV = append(f.bufV, r.cols[vi]...)
	if len(f.bufG) >= f.runRows {
		return f.flush()
	}
	return nil
}

// flush sorts the buffered chunk by (group, value), removes adjacent
// duplicates, and writes it as one sorted run.
func (f *ExternalGroupFold) flush() error {
	n := len(f.bufG)
	if n == 0 {
		return nil
	}
	sort.Sort(&pairSort{g: f.bufG, v: f.bufV})
	w := 0
	for i := 0; i < n; i++ {
		if i == 0 || f.bufG[i] != f.bufG[w-1] || f.bufV[i] != f.bufV[w-1] {
			f.bufG[w], f.bufV[w] = f.bufG[i], f.bufV[i]
			w++
		}
	}
	if err := f.rf.AppendRun([][]tgm.NodeID{f.bufG[:w], f.bufV[:w]}); err != nil {
		return err
	}
	f.bufG, f.bufV = f.bufG[:0], f.bufV[:0]
	return nil
}

// Finish merges the sorted runs with duplicate elimination and returns
// the grouped result and its group keys, ascending. The pair file is
// released; the returned SpilledGroups owns the values file.
func (f *ExternalGroupFold) Finish() (*SpilledGroups, []tgm.NodeID, error) {
	if err := f.flush(); err != nil {
		f.rf.Close()
		return nil, nil, err
	}
	var keys []tgm.NodeID
	if f.rf.NumRuns() <= 1 {
		// A single run is already globally sorted and deduplicated:
		// serve values straight from it (column 1), no merge pass.
		dir := make(map[tgm.NodeID]groupLoc)
		if f.rf.NumRuns() == 1 {
			cols, err := f.rf.ReadRun(0)
			if err != nil {
				f.rf.Close()
				return nil, nil, err
			}
			for i, g := range cols[0] {
				loc, ok := dir[g]
				if !ok {
					loc = groupLoc{off: i}
					keys = append(keys, g)
				}
				loc.n++
				dir[g] = loc
			}
		}
		return &SpilledGroups{rf: f.rf, col: 1, dir: dir}, keys, nil
	}

	// K-way merge with dedup into a fresh values file; the directory
	// indexes each group's contiguous value span.
	out, err := spill.Create(f.pol.fileOptions(1, f.budget))
	if err != nil {
		f.rf.Close()
		return nil, nil, err
	}
	if f.pol.Metrics != nil {
		f.pol.Metrics.MergePasses.Add(1)
	}
	dir := make(map[tgm.NodeID]groupLoc)
	vals := make([]tgm.NodeID, 0, f.runRows)
	written := 0
	var curG, lastV tgm.NodeID
	var curN int32
	haveCur := false
	fail := func(err error) (*SpilledGroups, []tgm.NodeID, error) {
		f.rf.Close()
		out.Close()
		return nil, nil, err
	}
	flushVals := func() error {
		if len(vals) == 0 {
			return nil
		}
		if err := out.AppendRun([][]tgm.NodeID{vals}); err != nil {
			return err
		}
		written += len(vals)
		vals = vals[:0]
		return nil
	}
	err = mergeRuns(f.rf, func(row []tgm.NodeID) error {
		g, v := row[0], row[1]
		if haveCur && g == curG && v == lastV {
			return nil // duplicate pair straddling two runs
		}
		if !haveCur || g != curG {
			if haveCur {
				dir[curG] = groupLoc{off: written + len(vals) - int(curN), n: curN}
				curN = 0
			}
			keys = append(keys, g)
		}
		curG, lastV, haveCur = g, v, true
		curN++
		vals = append(vals, v)
		if len(vals) >= f.runRows {
			return flushVals()
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if haveCur {
		dir[curG] = groupLoc{off: written + len(vals) - int(curN), n: curN}
	}
	if err := flushVals(); err != nil {
		return fail(err)
	}
	f.rf.Close()
	return &SpilledGroups{rf: out, col: 0, dir: dir}, keys, nil
}

// Abort discards the fold and its file.
func (f *ExternalGroupFold) Abort() { f.rf.Close() }

// pairSort orders parallel (group, value) slices by group, then value.
type pairSort struct{ g, v []tgm.NodeID }

func (p *pairSort) Len() int { return len(p.g) }
func (p *pairSort) Less(i, j int) bool {
	if p.g[i] != p.g[j] {
		return p.g[i] < p.g[j]
	}
	return p.v[i] < p.v[j]
}
func (p *pairSort) Swap(i, j int) {
	p.g[i], p.g[j] = p.g[j], p.g[i]
	p.v[i], p.v[j] = p.v[j], p.v[i]
}

// runCursor is one sorted run's position in a k-way merge.
type runCursor struct {
	pos  int
	cols [][]tgm.NodeID
}

// less orders two cursors by their current row, lexicographically
// across columns.
func (c *runCursor) less(o *runCursor) bool {
	for k := range c.cols {
		a, b := c.cols[k][c.pos], o.cols[k][o.pos]
		if a != b {
			return a < b
		}
	}
	return false
}

// cursorHeap is the k-way merge frontier.
type cursorHeap []*runCursor

func (h cursorHeap) Len() int           { return len(h) }
func (h cursorHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h cursorHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)        { *h = append(*h, x.(*runCursor)) }
func (h *cursorHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h cursorHeap) top() *runCursor    { return h[0] }

// mergeRuns k-way merges every run of rf (each run sorted, the merge
// globally sorted) and emits each row — duplicates included; callers
// dedup against their last emission, which is adjacent by sort order.
// One cursor per run is resident at a time; with a pager pool the
// total decoded residency stays bounded regardless of run count.
func mergeRuns(rf *spill.RunFile, emit func(row []tgm.NodeID) error) error {
	ncols := rf.Cols()
	h := make(cursorHeap, 0, rf.NumRuns())
	for i := 0; i < rf.NumRuns(); i++ {
		cols, err := rf.ReadRun(i)
		if err != nil {
			return err
		}
		if len(cols[0]) == 0 {
			continue
		}
		h = append(h, &runCursor{cols: cols})
	}
	heap.Init(&h)
	row := make([]tgm.NodeID, ncols)
	for h.Len() > 0 {
		c := h.top()
		for k := range row {
			row[k] = c.cols[k][c.pos]
		}
		if err := emit(row); err != nil {
			return err
		}
		c.pos++
		if c.pos < len(c.cols[0]) {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}
