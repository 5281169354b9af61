package graphrel

import (
	"repro/internal/lru"
	"repro/internal/pager"
	"repro/internal/spill"
	"repro/internal/tgm"
)

// Spill-to-disk execution: when a presentation crosses the row
// threshold, each participating column's grouping (GroupPath's Groups)
// writes its values to temp-file runs (internal/spill) and faults them
// back through the pager instead of failing with a RowLimitError. Only
// the values leave the heap: the group keys and offsets stay, so a
// spilled grouping counts exactly as the heap one does and only Refs
// pays IO.
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

func (p *SpillPolicy) fileOptions(budget *spill.Budget) spill.Options {
	return spill.Options{
		Dir: p.Dir, Cols: 1,
		Metrics: p.Metrics, Budget: budget, Pool: p.Pool, Named: p.Named,
	}
}

// SpilledGroups is the disk-resident form of a grouping: Groups' keys
// and offsets on the heap, its values in a one-column run file read
// through the pager. Count and CountAt are Groups' own and pay no IO;
// Refs faults in the runs covering one group.
type SpilledGroups struct {
	Groups // keys and offs; vals stays nil
	rf     *spill.RunFile
}

// SpillGroups writes gs's values to a run file under the policy and
// shared budget, in RunRows-sized runs (a group may straddle two), and
// returns the grouping that reads them back. gs itself is not
// modified; the caller drops it to release the values. A run past the
// budget fails with *spill.BudgetError and leaves no file behind.
func SpillGroups(gs *Groups, pol *SpillPolicy, budget *spill.Budget) (*SpilledGroups, error) {
	rf, err := spill.Create(pol.fileOptions(budget))
	if err != nil {
		return nil, err
	}
	for lo, n := 0, pol.runRows(); lo < len(gs.vals); lo += n {
		if err := rf.AppendRun([][]tgm.NodeID{gs.vals[lo:min(lo+n, len(gs.vals))]}); err != nil {
			rf.Close()
			return nil, err
		}
	}
	return &SpilledGroups{Groups: Groups{keys: gs.keys, offs: gs.offs}, rf: rf}, nil
}

// Refs reads id's values (ascending, deduplicated — the same contract
// as Groups) from the values file into *buf, growing it as needed, and
// returns them. A caller that passes the same buffer back for every
// cell reads a window's groups without allocating once the buffer has
// grown to the largest group.
func (sg *SpilledGroups) Refs(buf *[]tgm.NodeID, id tgm.NodeID) ([]tgm.NodeID, error) {
	dst := (*buf)[:0]
	defer func() { *buf = dst }()
	lo, hi := sg.span(id)
	for ri, row := sg.rf.RunForRow(lo), lo; row < hi; ri++ {
		meta := sg.rf.Run(ri)
		cols, err := sg.rf.ReadRun(ri)
		if err != nil {
			return dst, err
		}
		end := min(meta.Rows, hi-meta.StartRow)
		dst = append(dst, cols[0][row-meta.StartRow:end]...)
		row = meta.StartRow + end
	}
	return dst, nil
}

// Close releases the values file.
func (sg *SpilledGroups) Close() error { return sg.rf.Close() }
