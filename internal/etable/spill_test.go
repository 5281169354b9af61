package etable

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graphrel"
	"repro/internal/pager"
	"repro/internal/spill"
)

// testSpillPolicy builds a policy over a per-test temp directory with
// runs small enough that even the test corpus spans several of them.
func testSpillPolicy(t testing.TB, runRows int) (*graphrel.SpillPolicy, *spill.Metrics) {
	t.Helper()
	m := &spill.Metrics{}
	return &graphrel.SpillPolicy{
		Dir:     t.TempDir(),
		Pool:    pager.New(4),
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
		oraclePr, err := Prepare(tr.Instance, p, oracleMatched)
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
		src, err := MatchSource(tr.Instance, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		pr, matched, err := PrepareFromSource(tr.Instance, p, src, opt)
		if err != nil {
			t.Fatalf("trial %d (year>%d trigger=%d): %v", trial, year, trigger, err)
		}
		if matched != nil {
			t.Fatalf("trial %d: spilled prepare returned a heap relation", trial)
		}
		if pr.Spilled() == nil {
			t.Fatalf("trial %d: %d match rows > trigger %d but nothing spilled",
				trial, oracleMatched.Len(), trigger)
		}
		if pr.Spilled().Len() != oracleMatched.Len() {
			t.Fatalf("trial %d: spilled %d rows, want %d", trial, pr.Spilled().Len(), oracleMatched.Len())
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

		st := metrics.Snapshot()
		if st.Spills == 0 || st.RunBytes == 0 {
			t.Fatalf("trial %d: spill metrics empty after forced spill: %+v", trial, st)
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
// results: the prepare succeeds past MaxRows, is never cached or
// pinned (each caller owns its own disk-backed presentation and its
// Close), and an uncapped prepare of the same pattern still computes
// and caches the heap form.
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

	pr, pin, err := e.PrepareWithOpts(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	pin.Release() // spilled prepares return a nil-safe no-op pin
	if pr.Spilled() == nil {
		t.Fatal("prepare over MaxRows with a spill policy stayed on the heap")
	}
	got, err := pr.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "spilled-executor", got, full)

	// A second capped prepare spills again: disk-backed results are
	// never shared through the cache.
	pr2, _, err := e.PrepareWithOpts(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pr2.Spilled() == nil {
		t.Fatal("second capped prepare did not spill (cached a spilled result?)")
	}
	if pr2.Spilled() == pr.Spilled() {
		t.Fatal("two capped prepares share one spilled relation")
	}
	if err := pr2.Close(); err != nil {
		t.Fatal(err)
	}

	// The uncapped prepare is unaffected by the spilled traffic.
	pr3, pin3, err := e.PrepareWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pin3.Release()
	if pr3.Spilled() != nil {
		t.Fatal("uncapped prepare spilled")
	}
	if pr3.NumRows() != full.NumRows() {
		t.Fatalf("uncapped rows = %d, want %d", pr3.NumRows(), full.NumRows())
	}
	if metrics.Snapshot().Spills < 2 {
		t.Fatalf("spill metrics = %+v, want ≥2 spills", metrics.Snapshot())
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
	_, _, err := e.PrepareWithOpts(p, ExecOptions{MaxRows: 2, Spill: pol})
	var rle *graphrel.RowLimitError
	if !errors.As(err, &rle) || rle.Limit != 2 {
		t.Fatalf("err = %v, want RowLimitError{Limit: 2}", err)
	}
	if n, err := spill.SweepDir(pol.Dir); err != nil || n != 0 {
		t.Fatalf("aborted spill left %d run file(s) in %s (sweep err %v)", n, pol.Dir, err)
	}
}
