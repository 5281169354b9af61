// Package registry holds the multi-dataset serving state: a set of
// named datasets, each owning one frozen TGDB plus the mutable serving
// state scoped to it — an execution cache and snapshot load metrics.
// The server routes /api/v1/datasets/{name}/... through here.
//
// Datasets come in two flavors:
//
//   - Eager (AddGraph): the schema and instance graph are already in
//     memory — the single-dataset boot path, wrapping a freshly
//     translated corpus as the "default" dataset.
//   - Deferred (AddSnapshot): only a snapshot path is registered; the
//     first request that needs the graph triggers the disk load. Loads
//     are singleflight — concurrent first requests elect one loader,
//     the rest wait for its result. A failed load is returned to that
//     attempt's waiters only; the next request retries from scratch, so
//     a transient I/O error does not poison the dataset forever. One
//     number chooses the load's residency: 0 decodes every column at
//     load (resident); n > 0 opens the file paged, with attribute
//     columns faulting in through a pager of n sections.
//
// Isolation is the point: every dataset has its own etable.Cache and
// its own graph, so queries against one dataset can never pollute
// another's cache or skew its telemetry.
package registry

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/etable"
	"repro/internal/lru"
	"repro/internal/snapshot"
	"repro/internal/tgm"
)

// Options tunes per-dataset resources.
type Options struct {
	// CacheEntries is each dataset's execution cache capacity
	// (default etable.DefaultCacheEntries). Caches are per dataset, not shared: capacity is
	// per-dataset so one hot dataset cannot evict another's entries.
	CacheEntries int
}

func (o Options) withDefaults() Options {
	if o.CacheEntries == 0 {
		o.CacheEntries = etable.DefaultCacheEntries
	}
	return o
}

// Registry is the named-dataset table. Add* is boot-time
// configuration; Get/Default/Names are hot-path lookups and safe for
// concurrent use with each other and with dataset loads.
type Registry struct {
	opts Options

	mu       sync.RWMutex
	datasets map[string]*Dataset
	def      string // default dataset name: the first added ("" until then)
}

// New creates an empty registry.
func New(opts Options) *Registry {
	return &Registry{
		opts:     opts.withDefaults(),
		datasets: make(map[string]*Dataset),
	}
}

// add registers ds under name, making it the default if it is the
// first.
func (r *Registry) add(name string, ds *Dataset) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("registry: empty dataset name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.datasets[name]; dup {
		return nil, fmt.Errorf("registry: dataset %q already registered", name)
	}
	r.datasets[name] = ds
	if r.def == "" {
		r.def = name
	}
	return ds, nil
}

// AddGraph registers an eager dataset over an in-memory graph (the
// single-dataset boot path). The graph is served as-is; it should be
// frozen before any request reaches it.
func (r *Registry) AddGraph(name string, schema *tgm.SchemaGraph, graph *tgm.InstanceGraph) (*Dataset, error) {
	if schema == nil || graph == nil {
		return nil, fmt.Errorf("registry: dataset %q: nil schema or graph", name)
	}
	return r.add(name, &Dataset{
		name:   name,
		cache:  etable.NewCache(r.opts.CacheEntries),
		schema: schema,
		graph:  graph,
		loaded: true,
	})
}

// AddSnapshot registers a deferred dataset backed by an .etsnap file:
// the graph is not loaded here — the first Ensure loads it — so a
// server can register many datasets and pay only for the ones that get
// traffic. sections chooses the load's residency: 0 is resident
// (snapshot.Load); n > 0 is paged (snapshot.LazyLoad), boot decoding
// only the skeleton and attribute columns faulting in through a pager
// of n sections, so resident memory tracks the working set rather than
// the corpus. The file's header IS inspected at registration (when
// readable) so discovery endpoints can report size, section count, and
// graph counts before anything pays to load; a missing or damaged file
// does not fail registration, it fails the first Ensure.
func (r *Registry) AddSnapshot(name, path string, sections int) (*Dataset, error) {
	if path == "" {
		return nil, fmt.Errorf("registry: dataset %q: empty snapshot path", name)
	}
	ds := &Dataset{
		name:     name,
		path:     path,
		sections: sections,
		cache:    etable.NewCache(r.opts.CacheEntries),
	}
	if info, err := snapshot.ReadInfo(path); err == nil {
		ds.fileInfo, ds.fileInfoOK = info, true
	}
	return r.add(name, ds)
}

// Default returns the default dataset (nil for an empty registry).
func (r *Registry) Default() *Dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.datasets[r.def]
}

// Get looks up a dataset by name.
func (r *Registry) Get(name string) (*Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds, ok := r.datasets[name]
	return ds, ok
}

// Names returns the registered dataset names, sorted (callers that care
// which is default ask Default).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.datasets))
	for name := range r.datasets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Dataset is one named TGDB and its scoped serving state.
type Dataset struct {
	name     string
	path     string // "" for eager datasets
	sections int    // pager budget of a paged dataset; 0 is resident
	cache    *etable.Cache

	// Registration-time header inspection (snapshot.ReadInfo), so
	// discovery endpoints report file size / section / graph counts
	// without loading. Absent when the file was unreadable at Add time.
	fileInfo   snapshot.Info
	fileInfoOK bool

	// mu guards the load state below. It is held only to inspect or
	// flip that state — never across the disk load itself, so a slow
	// load blocks only the requests that need this dataset.
	mu       sync.Mutex
	loaded   bool
	loading  *loadAttempt // non-nil while a load is in flight
	schema   *tgm.SchemaGraph
	graph    *tgm.InstanceGraph
	lazySnap *snapshot.LazySnapshot // non-nil when loaded via LazyLoad

	// Load metrics for /api/v1/stats.
	snapshotBytes int64
	loadDuration  time.Duration
}

// loadAttempt is one singleflight load: the elected loader closes done
// after recording err; waiters read err only after done is closed.
type loadAttempt struct {
	done chan struct{}
	err  error
}

// Name returns the dataset's registry name.
func (d *Dataset) Name() string { return d.name }

// Path returns the backing snapshot path ("" for eager datasets).
func (d *Dataset) Path() string { return d.path }

// Cache returns the dataset's execution cache. Valid before load — the
// cache exists from registration so callers can hold it across a lazy
// load.
func (d *Dataset) Cache() *etable.Cache { return d.cache }

// Loaded reports whether the graph is resident in memory.
func (d *Dataset) Loaded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.loaded
}

// Schema returns the schema graph, or nil if the dataset has not been
// loaded. Call Ensure first on request paths.
func (d *Dataset) Schema() *tgm.SchemaGraph {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.schema
}

// Graph returns the instance graph, or nil if the dataset has not been
// loaded. Call Ensure first on request paths.
func (d *Dataset) Graph() *tgm.InstanceGraph {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.graph
}

// LoadMetrics reports the snapshot size and load wall time (zero for
// eager datasets and for lazy datasets not yet loaded).
func (d *Dataset) LoadMetrics() (bytes int64, dur time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotBytes, d.loadDuration
}

// Lazy reports whether this dataset is configured for out-of-core
// (paged) loading.
func (d *Dataset) Lazy() bool { return d.sections > 0 }

// FileInfo returns the snapshot header summary captured at
// registration (size, section count, node/edge counts), and whether
// one is available. It never touches the disk after Add time.
func (d *Dataset) FileInfo() (snapshot.Info, bool) {
	return d.fileInfo, d.fileInfoOK
}

// PagerStats reports the lazy pager's telemetry and the snapshot's
// total column-section count. ok is false for eager datasets and for
// lazy datasets that have not loaded yet.
func (d *Dataset) PagerStats() (st lru.Stats, totalSections int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lazySnap == nil {
		return lru.Stats{}, 0, false
	}
	st, totalSections = d.lazySnap.PagerStats()
	return st, totalSections, true
}

// PagerResidentBytes is the decoded size of the lazy pager's resident
// columns (snapshot.LazySnapshot.ResidentBytes); 0 when PagerStats
// reports no pager.
func (d *Dataset) PagerResidentBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lazySnap == nil {
		return 0
	}
	return d.lazySnap.ResidentBytes()
}

// Ensure makes the graph resident, loading the snapshot on first need.
// Concurrent calls singleflight: one loads, the rest block until it
// finishes and share its error. ctx cancellation releases a *waiter*
// early (the load itself keeps running for the others — disk loads are
// not cancelable midway without corrupting nothing, they are pure
// reads, but abandoning one loser's wait must not abort the winner's
// work). A failed attempt is not sticky: the next Ensure retries.
func (d *Dataset) Ensure(ctx context.Context) error {
	d.mu.Lock()
	if d.loaded {
		d.mu.Unlock()
		return nil
	}
	if att := d.loading; att != nil {
		// Someone else is loading; wait for their verdict.
		d.mu.Unlock()
		select {
		case <-att.done:
			return att.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// We are the loader.
	att := &loadAttempt{done: make(chan struct{})}
	d.loading = att
	d.mu.Unlock()

	start := time.Now()
	var (
		snap *snapshot.Snapshot
		lazy *snapshot.LazySnapshot
		err  error
	)
	if d.Lazy() {
		lazy, err = snapshot.LazyLoad(d.path, snapshot.LazyOptions{PoolSections: d.sections})
		if err == nil {
			snap = &lazy.Snapshot
		}
	} else {
		snap, err = snapshot.Load(d.path)
	}

	d.mu.Lock()
	d.loading = nil
	if err != nil {
		att.err = fmt.Errorf("registry: loading dataset %q from %s: %w", d.name, d.path, err)
	} else {
		d.schema = snap.Schema
		d.graph = snap.Graph
		d.lazySnap = lazy
		d.snapshotBytes = snap.Info.Bytes
		d.loadDuration = time.Since(start)
		d.loaded = true
	}
	d.mu.Unlock()
	close(att.done)
	return att.err
}
