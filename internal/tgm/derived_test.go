package tgm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Two key types with the same underlying value: distinct keys, as two
// packages' keys are.
type (
	keyA string
	keyB string
)

// counted returns a build that counts its calls and returns a fresh
// value each time, failing while fail is set.
func counted(builds *atomic.Int32, fail *atomic.Bool) func() (*int, error) {
	return func() (*int, error) {
		n := builds.Add(1)
		time.Sleep(time.Millisecond) // widen the window for concurrent first calls
		if fail != nil && fail.Load() {
			return nil, errFault
		}
		v := int(n)
		return &v, nil
	}
}

// TestDeriveConcurrentFirstCallsBuildOnce: eight goroutines deriving
// one key of a frozen graph at once share one build and one value,
// which Peek then returns without building; a key of another type with
// the same underlying value is a key of its own. Run under -race by
// scripts/check.sh.
func TestDeriveConcurrentFirstCallsBuildOnce(t *testing.T) {
	g := rankGraph(t, nil)
	g.Freeze()
	if _, ok := Peek[*int](g, keyA("k")); ok {
		t.Fatal("Peek found a value before any build")
	}
	var builds atomic.Int32
	got := make([]*int, 8)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			v, err := Derive(g, keyA("k"), counted(&builds, nil))
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	start.Done()
	done.Wait()
	for i, v := range got {
		if v == nil || v != got[0] {
			t.Fatalf("goroutine %d got %p, goroutine 0 %p: more than one build", i, v, got[0])
		}
	}
	if p, ok := Peek[*int](g, keyA("k")); !ok || p != got[0] || builds.Load() != 1 {
		t.Fatalf("Peek = %p, %v after %d builds; want the one built value", p, ok, builds.Load())
	}
	other, err := Derive(g, keyB("k"), counted(&builds, nil))
	if err != nil {
		t.Fatal(err)
	}
	if other == got[0] || builds.Load() != 2 {
		t.Fatalf("keyB(%q) shared keyA(%q)'s value (%d builds)", "k", "k", builds.Load())
	}
}

// TestDeriveFailedBuildIsRetried: a failed build is the call's error
// and stores nothing — Peek finds nothing and the next call builds
// again — while a successful build is kept.
func TestDeriveFailedBuildIsRetried(t *testing.T) {
	g := rankGraph(t, nil)
	g.Freeze()
	var builds atomic.Int32
	var fail atomic.Bool
	fail.Store(true)
	for try := 0; try < 2; try++ {
		if _, err := Derive(g, keyA("k"), counted(&builds, &fail)); !errors.Is(err, errFault) {
			t.Fatalf("try %d: Derive over a failing build = %v, want its error", try, err)
		}
		if _, ok := Peek[*int](g, keyA("k")); ok {
			t.Fatalf("try %d: a failed build was kept", try)
		}
	}
	fail.Store(false)
	v, err := Derive(g, keyA("k"), counted(&builds, &fail))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Derive(g, keyA("k"), counted(&builds, &fail))
	if err != nil || again != v || builds.Load() != 3 {
		t.Fatalf("after two faults and a build: %d builds, kept %v; want 3 builds and one value",
			builds.Load(), again == v)
	}
}

// TestDeriveUnfrozenBuildsPerCall: an unfrozen graph may still change,
// so every Derive builds afresh and nothing is kept.
func TestDeriveUnfrozenBuildsPerCall(t *testing.T) {
	g := rankGraph(t, nil)
	var builds atomic.Int32
	first, _ := Derive(g, keyA("k"), counted(&builds, nil))
	second, _ := Derive(g, keyA("k"), counted(&builds, nil))
	if first == second || builds.Load() != 2 {
		t.Fatalf("%d builds for two calls over an unfrozen graph, want 2", builds.Load())
	}
	if _, ok := Peek[*int](g, keyA("k")); ok {
		t.Fatal("an unfrozen graph kept a derived value")
	}
}
