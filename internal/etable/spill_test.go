package etable

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graphrel"
	"repro/internal/lru"
	"repro/internal/pager"
	"repro/internal/spill"
	"repro/internal/tgm"
)

// testSpillPolicy builds a policy over a per-test temp directory with
// runs small enough that even the test corpus spans several of them.
func testSpillPolicy(t testing.TB, runRows int) (*graphrel.SpillPolicy, *spill.Metrics) {
	t.Helper()
	m := &spill.Metrics{}
	return &graphrel.SpillPolicy{
		Dir:     t.TempDir(),
		Pool:    lru.New[pager.Key, [][]tgm.NodeID](4),
		Metrics: m,
		RunRows: runRows,
	}, m
}

// TestSpilledPrepareEquivalenceRandomized is the spilled≡oracle fuzz:
// random selectivities, batch sizes, run sizes, and spill triggers
// force the prepare's drain over its threshold, and every rendered
// window — including sorted variants — must be identical, cell for
// cell, to the heap presentation prepared over the oracle's match. Run
// under -race by scripts/check.sh.
func TestSpilledPrepareEquivalenceRandomized(t *testing.T) {
	tr := planFixture(t)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		year := 1995 + rng.Intn(18)
		p := buildPattern(t, tr, "Papers",
			opSelect(fmt.Sprintf("year > %d", year)),
			opAdd(tr, "Paper_Authors"),
			opAdd(tr, "Authors→Institutions"),
		)
		oracleMatched, err := MatchNaive(tr.Instance, p)
		if err != nil {
			t.Fatal(err)
		}
		if oracleMatched.Len() < 8 {
			continue // too selective to force a spill meaningfully
		}
		oraclePr, err := foldOracle(tr.Instance, p, oracleMatched)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oraclePr.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}

		withSmallStreamBatches(t, 1+rng.Intn(48))
		pol, metrics := testSpillPolicy(t, 1+rng.Intn(32))
		trigger := 1 + rng.Intn(oracleMatched.Len()-1)
		opt := ExecOptions{MaxRows: trigger, Spill: pol}
		pr, _, err := prepareMiss(tr.Instance, p, opt)
		if err != nil {
			t.Fatalf("trial %d (year>%d trigger=%d): %v", trial, year, trigger, err)
		}
		if st := metrics.Snapshot(); st.Spills == 0 || st.RunBytes == 0 {
			t.Fatalf("trial %d: %d match rows > trigger %d but nothing spilled: %+v",
				trial, oracleMatched.Len(), trigger, st)
		}

		got, err := pr.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("trial%d/full", trial), got, want)
		for w := 0; w < 6; w++ {
			off, lim := rng.Intn(want.NumRows()), 1+rng.Intn(10)
			gw, err := pr.Window(off, lim)
			if err != nil {
				t.Fatal(err)
			}
			ww, err := oraclePr.Window(off, lim)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fmt.Sprintf("trial%d/window=%d+%d", trial, off, lim), gw, ww)
		}

		// Sorted variants agree too: a base-attribute sort and a
		// reference-count sort, each windowed mid-table.
		var specs []SortSpec
		haveBase, haveRef := false, false
		for _, c := range want.Columns {
			switch {
			case c.Kind == ColBase && !haveBase:
				specs = append(specs, SortSpec{Attr: c.Attr, Desc: rng.Intn(2) == 0})
				haveBase = true
			case c.Kind != ColBase && !haveRef:
				specs = append(specs, SortSpec{Column: c.Name, Desc: rng.Intn(2) == 0})
				haveRef = true
			}
		}
		for si, spec := range specs {
			gv, err := pr.SortedView(spec)
			if err != nil {
				t.Fatal(err)
			}
			wv, err := oraclePr.SortedView(spec)
			if err != nil {
				t.Fatal(err)
			}
			off := rng.Intn(want.NumRows())
			gw, err := gv.Window(off, 7)
			if err != nil {
				t.Fatal(err)
			}
			ww, err := wv.Window(off, 7)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fmt.Sprintf("trial%d/sort%d", trial, si), gw, ww)
		}

		if metrics.Snapshot().Faults == 0 {
			t.Fatalf("trial %d: windows over spilled groupings faulted nothing: %+v", trial, metrics.Snapshot())
		}
		if err := pr.Close(); err != nil {
			t.Fatalf("trial %d: Close: %v", trial, err)
		}
		if err := pr.Close(); err != nil {
			t.Fatalf("trial %d: second Close: %v", trial, err)
		}
	}
}

// TestSpilledExecutorBrowsable pins the executor contract for spilled
// results: the prepare succeeds past MaxRows, the presentation is never
// shared (each caller owns its own disk-backed presentation and its
// Close — only the reduced sets are cached), and an uncapped prepare
// of the same pattern prepares on the heap.
func TestSpilledExecutorBrowsable(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	_, full := oracleTable(t, tr.Instance, p)
	if full.NumRows() < 4 {
		t.Fatalf("fixture too small: %d rows", full.NumRows())
	}
	pol, metrics := testSpillPolicy(t, 4)
	e := NewExecutor(tr.Instance)
	opt := ExecOptions{MaxRows: 2, Spill: pol}

	pr, err := e.PrepareWithOpts(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	first := metrics.Snapshot().Spills
	if first == 0 {
		t.Fatal("prepare over MaxRows with a spill policy stayed on the heap")
	}
	got, err := pr.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "spilled-executor", got, full)

	// A second capped prepare spills again: disk-backed results are
	// never shared through the cache.
	pr2, err := e.PrepareWithOpts(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Snapshot().Spills; got != 2*first {
		t.Fatalf("second capped prepare opened %d spill files, want %d like the first (cached a spilled result?)", got-first, first)
	}
	if err := pr2.Close(); err != nil {
		t.Fatal(err)
	}

	// The uncapped prepare is unaffected by the spilled traffic.
	pr3, err := e.PrepareWithOpts(p, ExecOptions{Spill: pol})
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Snapshot().Spills; got != 2*first {
		t.Fatal("uncapped prepare spilled")
	}
	if pr3.NumRows() != full.NumRows() {
		t.Fatalf("uncapped rows = %d, want %d", pr3.NumRows(), full.NumRows())
	}
	if _, ok := e.Cache().Get(matchPrefix + Signature(p)); !ok {
		t.Fatal("the reduced match is not cached")
	}
}

// TestSpillByteBudgetExceeded: the -max-spill-bytes hard cap fails the
// prepare with the row-cap's 413 error carrying the observed rows, and
// leaves no run files behind in the spill directory.
func TestSpillByteBudgetExceeded(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	pol, _ := testSpillPolicy(t, 4)
	pol.MaxBytes = 128 // a single run exceeds this
	pol.Named = true   // visible files so the cleanup assert can look
	e := NewExecutor(tr.Instance)
	_, err := e.PrepareWithOpts(p, ExecOptions{MaxRows: 2, Spill: pol})
	var rle *graphrel.RowLimitError
	if !errors.As(err, &rle) || rle.Limit != 2 {
		t.Fatalf("err = %v, want RowLimitError{Limit: 2}", err)
	}
	if n, err := spill.SweepDir(pol.Dir); err != nil || n != 0 {
		t.Fatalf("aborted spill left %d run file(s) in %s (sweep err %v)", n, pol.Dir, err)
	}
}

// TestSpillBudgetChargesOnlyWhatIsReadBack: -max-spill-bytes pays for
// the state a spilled presentation reads back — the external folds,
// whose group keys are its rows — and nothing else. The folds' cost is measured by
// running graphrel's external operators by hand over the same match;
// a capped, spilling prepare under exactly that budget succeeds and
// renders the oracle's table (a second on-disk copy of the matched
// relation would not fit), and one byte less still fails with the row
// cap's typed error.
func TestSpillBudgetChargesOnlyWhatIsReadBack(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	_, want := oracleTable(t, tr.Instance, p)
	// MaxRows 2 under the default batch size: the first batch already
	// crosses the cap, so the prepare demotes empty heap state and every
	// row reaches the external operators through Append/Add — the same
	// calls, in the same order, as the hand-run below.
	matched, err := MatchOpts(tr.Instance, p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prim := p.PrimaryNode().Key
	pol, metrics := testSpillPolicy(t, 4)
	for _, n := range p.Nodes {
		if n.Key == prim {
			continue
		}
		f, err := graphrel.NewExternalGroupFold(pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(matched, prim, n.Key); err != nil {
			t.Fatal(err)
		}
		sg, _, err := f.Finish()
		if err != nil {
			t.Fatal(err)
		}
		sg.Close()
	}
	foldBytes := metrics.Snapshot().RunBytes
	if foldBytes == 0 {
		t.Fatal("fixture folds spill nothing")
	}

	pol, metrics = testSpillPolicy(t, 4)
	pol.MaxBytes = foldBytes
	pr, err := NewExecutor(tr.Instance).PrepareWithOpts(p, ExecOptions{MaxRows: 2, Spill: pol})
	if err != nil {
		t.Fatalf("prepare under the folds' own budget (%d bytes): %v", foldBytes, err)
	}
	defer pr.Close()
	if got := metrics.Snapshot().RunBytes; got != foldBytes {
		t.Fatalf("prepare spilled %d bytes, its folds need %d", got, foldBytes)
	}
	got, err := pr.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "budgeted", got, want)

	pol, _ = testSpillPolicy(t, 4)
	pol.MaxBytes = foldBytes - 1
	_, err = NewExecutor(tr.Instance).PrepareWithOpts(p, ExecOptions{MaxRows: 2, Spill: pol})
	var rle *graphrel.RowLimitError
	if !errors.As(err, &rle) || rle.Limit != 2 {
		t.Fatalf("one byte under the folds' budget: err = %v, want RowLimitError{Limit: 2}", err)
	}
}
