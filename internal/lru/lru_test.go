package lru

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// key mirrors the pager's section key: a struct with a string in it.
type key struct {
	Type string
	Attr int
}

// countingLoader returns a load func for k that bumps a per-key
// counter, so tests can tell hits from reloads.
func countingLoader(loads *sync.Map, k key) func() (string, error) {
	return func() (string, error) {
		c, _ := loads.LoadOrStore(k, new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		return fmt.Sprintf("%s/%d", k.Type, k.Attr), nil
	}
}

func loadCount(loads *sync.Map, k key) int64 {
	c, ok := loads.Load(k)
	if !ok {
		return 0
	}
	return c.(*atomic.Int64).Load()
}

// keys lists the unpinned keys from most to least recently used.
func (c *Cache[K, V]) keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []K
	for e := c.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

// TestRecencyOrder: eviction drops the least recently used entry, not
// the least recently inserted, and a Lookup counts as a use.
func TestRecencyOrder(t *testing.T) {
	c := New[string, int](3)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	if _, ok := c.Lookup("a"); !ok { // "b" is now least recently used
		t.Fatal(`"a" missing`)
	}
	if ev := c.Add("d", 4); !slices.Equal(ev, []int{2}) {
		t.Fatalf("Add evicted %v, want [2] (the value of b)", ev)
	}
	if got, want := c.keys(), []string{"d", "a", "c"}; !slices.Equal(got, want) {
		t.Fatalf("recency order = %v, want %v", got, want)
	}
}

// TestExactCapacity: a cache of capacity n holds exactly n entries, for
// every n, and counts what it evicts.
func TestExactCapacity(t *testing.T) {
	for _, n := range []int{1, 3, 20, 1000} {
		c := New[int, int](n)
		for i := 0; i < 2*n; i++ {
			if _, err := c.Get(i, func() (int, error) { return i, nil }); err != nil {
				t.Fatal(err)
			}
			if want := min(i+1, n); c.Len() != want {
				t.Fatalf("capacity %d after %d loads: Len = %d, want %d", n, i+1, c.Len(), want)
			}
		}
		st := c.Stats()
		if st.Capacity != n || st.Misses != int64(2*n) || st.Evictions != int64(n) {
			t.Fatalf("capacity %d: Stats = %+v", n, st)
		}
		// The survivors are the n most recent keys.
		for i := n; i < 2*n; i++ {
			if _, ok := c.Lookup(i); !ok {
				t.Fatalf("capacity %d: key %d evicted, want kept", n, i)
			}
		}
	}
}

// TestAddReturnsDisplaced: Add hands back every value the cache stops
// holding — the replaced value and the evicted ones — and RemoveFunc
// hands back what it removes, skipping pinned entries.
func TestAddReturnsDisplaced(t *testing.T) {
	c := New[string, string](2)
	if ev := c.Add("a", "a1"); ev != nil {
		t.Fatalf("Add into an empty cache displaced %v", ev)
	}
	if ev := c.Add("a", "a2"); !slices.Equal(ev, []string{"a1"}) {
		t.Fatalf("replacing a displaced %v, want [a1]", ev)
	}
	c.Add("b", "b1")
	if ev := c.Add("c", "c1"); !slices.Equal(ev, []string{"a2"}) {
		t.Fatalf("Add over capacity displaced %v, want [a2]", ev)
	}
	_, release, err := c.Pin("b", func() (string, error) { t.Fatal("b is cached"); return "", nil })
	if err != nil {
		t.Fatal(err)
	}
	removed := c.RemoveFunc(func(string, string) bool { return true })
	if !slices.Equal(removed, []string{"c1"}) {
		t.Fatalf("RemoveFunc removed %v, want [c1] (b is pinned)", removed)
	}
	release()
	if v, ok := c.Lookup("b"); !ok || v != "b1" {
		t.Fatalf("pinned b after RemoveFunc = %q, %v", v, ok)
	}
}

// TestGetCachesWithinBudget: repeated Gets within the capacity never
// reload.
func TestGetCachesWithinBudget(t *testing.T) {
	c := New[key, string](4)
	var loads sync.Map
	keys := []key{{"A", 0}, {"A", 1}, {"B", 0}}
	for round := 0; round < 3; round++ {
		for _, k := range keys {
			v, err := c.Get(k, countingLoader(&loads, k))
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("%s/%d", k.Type, k.Attr); v != want {
				t.Fatalf("Get(%v) = %v, want %v", k, v, want)
			}
		}
	}
	for _, k := range keys {
		if n := loadCount(&loads, k); n != 1 {
			t.Errorf("key %v loaded %d times, want 1", k, n)
		}
	}
	st := c.Stats()
	if st.Len != 3 || st.Misses != 3 || st.Hits != 6 || st.Evictions != 0 {
		t.Fatalf("Stats = %+v, want 3 entries, 3 misses, 6 hits, 0 evictions", st)
	}
}

// TestLRUEviction: with capacity 2, loading a third key evicts the
// least recently used one — and recency is by access, not insertion.
func TestLRUEviction(t *testing.T) {
	c := New[key, string](2)
	var loads sync.Map
	a, b, d := key{"T", 0}, key{"T", 1}, key{"T", 2}
	get := func(k key) {
		t.Helper()
		if _, err := c.Get(k, countingLoader(&loads, k)); err != nil {
			t.Fatal(err)
		}
	}
	get(a)
	get(b)
	get(a) // a is now more recent than b
	get(d) // must evict b, not a
	if st := c.Stats(); st.Len != 2 || st.Evictions != 1 {
		t.Fatalf("Stats = %+v, want 2 entries, 1 eviction", st)
	}
	get(a)
	if n := loadCount(&loads, a); n != 1 {
		t.Fatalf("a reloaded (%d loads); LRU should have evicted b", n)
	}
	get(b)
	if n := loadCount(&loads, b); n != 2 {
		t.Fatalf("b loaded %d times, want 2 (evicted once)", n)
	}
}

// TestPinBlocksEviction: a pinned entry survives churn that exceeds the
// whole capacity, then returns to the recency order on release.
func TestPinBlocksEviction(t *testing.T) {
	c := New[key, string](2)
	var loads sync.Map
	pinned := key{"P", 0}
	_, release, err := c.Pin(pinned, countingLoader(&loads, pinned))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		k := key{"P", i}
		if _, err := c.Get(k, countingLoader(&loads, k)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Pinned != 1 {
		t.Fatalf("Stats.Pinned = %d, want 1", st.Pinned)
	}
	// The pinned entry plus the latest unpinned survivor.
	if st.Len != 2 {
		t.Fatalf("Stats.Len = %d, want 2", st.Len)
	}
	if _, err := c.Get(pinned, countingLoader(&loads, pinned)); err != nil {
		t.Fatal(err)
	}
	if n := loadCount(&loads, pinned); n != 1 {
		t.Fatalf("pinned entry reloaded (%d loads)", n)
	}
	release()
	release() // a second release is ignored
	// Released: the formerly pinned entry is ordinary again and churn can
	// evict it.
	for i := 6; i <= 8; i++ {
		k := key{"P", i}
		if _, err := c.Get(k, countingLoader(&loads, k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(pinned, countingLoader(&loads, pinned)); err != nil {
		t.Fatal(err)
	}
	if n := loadCount(&loads, pinned); n != 2 {
		t.Fatalf("formerly pinned entry loaded %d times, want 2 (evictable after release)", n)
	}
	if st := c.Stats(); st.Len != 2 || st.Pinned != 0 {
		t.Fatalf("Stats after release = %+v, want 2 entries, 0 pinned", st)
	}
}

// TestAllPinnedOvershoot: when every entry is pinned past the capacity,
// eviction yields (overshoot) instead of dropping pinned entries, and
// the capacity is re-enforced as pins release.
func TestAllPinnedOvershoot(t *testing.T) {
	c := New[key, string](2)
	var loads sync.Map
	var releases []func()
	for i := 0; i < 4; i++ {
		k := key{"T", i}
		_, rel, err := c.Pin(k, countingLoader(&loads, k))
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, rel)
	}
	if st := c.Stats(); st.Len != 4 || st.Pinned != 4 || st.Evictions != 0 {
		t.Fatalf("Stats = %+v, want 4 entries all pinned, 0 evictions", st)
	}
	for _, rel := range releases {
		rel()
	}
	if st := c.Stats(); st.Len != 2 || st.Pinned != 0 {
		t.Fatalf("Stats after releases = %+v, want 2 entries", st)
	}
}

// TestSingleflight: concurrent Gets for one key share a single load,
// and every waiter counts as a hit.
func TestSingleflight(t *testing.T) {
	c := New[key, string](4)
	var loads atomic.Int64
	gate := make(chan struct{})
	load := func() (string, error) {
		loads.Add(1)
		<-gate
		return "v", nil
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	vals := make([]string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = c.Get(key{"S", 0}, load)
		}(i)
	}
	// Let the workers pile up on the in-flight load, then open the gate.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if vals[i] != "v" {
			t.Fatalf("worker %d got %v", i, vals[i])
		}
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("%d loads for one key, want 1 (singleflight)", n)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("Stats = %+v, want 1 miss and %d hits (waiters count as hits)", st, workers-1)
	}
}

// TestErrorNotSticky: a failed load is reported but not cached — the
// next Get retries and can succeed — and other keys are untouched.
func TestErrorNotSticky(t *testing.T) {
	c := New[key, string](2)
	boom := errors.New("disk on fire")
	calls := 0
	load := func() (string, error) {
		calls++
		if calls == 1 {
			return "", boom
		}
		return "recovered", nil
	}
	if _, err := c.Get(key{"E", 0}, load); !errors.Is(err, boom) {
		t.Fatalf("first Get error = %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Fatalf("failed load left %d entries", c.Len())
	}
	v, err := c.Get(key{"E", 0}, load)
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if v != "recovered" || calls != 2 {
		t.Fatalf("retry got %v after %d loads", v, calls)
	}
	if _, err := c.Get(key{"E", 1}, func() (string, error) { return "ok", nil }); err != nil {
		t.Fatal(err)
	}
}

// TestLoadPanic: a panicking load propagates to its own caller, fails a
// concurrent waiter with ErrLoadPanicked instead of hanging it, and
// leaves the key loadable.
func TestLoadPanic(t *testing.T) {
	c := New[key, string](4)
	k := key{"P", 0}
	waiterIn := make(chan struct{})
	waiterErr := make(chan error, 1)
	leaderIn := make(chan struct{})
	go func() {
		<-leaderIn
		close(waiterIn)
		_, err := c.Get(k, func() (string, error) {
			return "", errors.New("waiter loaded while the flight was open")
		})
		waiterErr <- err
	}()

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.Get(k, func() (string, error) {
			close(leaderIn)
			<-waiterIn
			time.Sleep(50 * time.Millisecond) // let the waiter join the flight
			panic("boom")
		})
	}()

	deadline := time.After(5 * time.Second)
	select {
	case r := <-leaderDone:
		if r == nil {
			t.Error("the panic did not reach the loading caller")
		}
	case <-deadline:
		t.Fatal("the loading caller never returned")
	}
	select {
	case err := <-waiterErr:
		if !errors.Is(err, ErrLoadPanicked) {
			t.Errorf("waiter err = %v, want ErrLoadPanicked", err)
		}
	case <-deadline:
		t.Fatal("waiter hung on a panicked load")
	}
	got := make(chan error, 1)
	go func() {
		v, err := c.Get(k, func() (string, error) { return "reloaded", nil })
		if err == nil && v != "reloaded" {
			err = fmt.Errorf("got %q", v)
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Errorf("Get after the panic: %v", err)
		}
	case <-deadline:
		t.Fatal("Get after the panic hung")
	}
}

// TestGetHitAllocs: a Get on a resident entry allocates nothing — the
// pager's hot path.
func TestGetHitAllocs(t *testing.T) {
	c := New[key, []int](4)
	k := key{"Papers", 3}
	col := []int{1, 2, 3}
	if _, err := c.Get(k, func() ([]int, error) { return col, nil }); err != nil {
		t.Fatal(err)
	}
	c.Add(key{"Papers", 4}, col) // k is no longer the head: the hit splices
	typ, attr := "Papers", 3
	allocs := testing.AllocsPerRun(100, func() {
		v, err := c.Get(key{typ, attr}, func() ([]int, error) { return col, nil })
		if err != nil || len(v) != 3 {
			t.Fatal("bad hit")
		}
		c.Lookup(key{"Papers", 4})
	})
	if allocs != 0 {
		t.Fatalf("Get on a resident entry: %v allocs, want 0", allocs)
	}
}

// TestConcurrentChurn hammers a tiny cache from many goroutines mixing
// Get, Pin, Add and Lookup over more keys than the capacity, so loads
// race evictions and releases. Run under -race; correctness is "right
// value, no deadlock, bounded unpinned residency, no leaked pin".
func TestConcurrentChurn(t *testing.T) {
	c := New[key, string](2)
	const workers, iters, keys = 8, 300, 7
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := key{"C", (w + i) % keys}
				want := fmt.Sprintf("C/%d", k.Attr)
				load := func() (string, error) { return want, nil }
				switch i % 4 {
				case 0:
					v, rel, err := c.Pin(k, load)
					if err != nil || v != want {
						t.Errorf("Pin(%v) = %v, %v", k, v, err)
						return
					}
					rel()
				case 1:
					c.Add(k, want)
				case 2:
					if v, ok := c.Lookup(k); ok && v != want {
						t.Errorf("Lookup(%v) = %v", k, v)
						return
					}
				default:
					v, err := c.Get(k, load)
					if err != nil || v != want {
						t.Errorf("Get(%v) = %v, %v", k, v, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Pinned != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
	if st.Len > st.Capacity {
		t.Fatalf("residency %d exceeds capacity %d", st.Len, st.Capacity)
	}
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("churn exercised no loads/evictions: %+v", st)
	}
}
