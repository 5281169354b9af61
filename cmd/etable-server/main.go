// Command etable-server boots the three-tier ETable system (§6.2): it
// obtains a TGDB — generating and translating the academic corpus, or
// loading a pre-translated .etsnap snapshot from disk — and serves the
// interactive web interface of Figure 9 plus the JSON API to any number
// of concurrent sessions. Repeated -dataset name=path flags register
// additional snapshot-backed datasets, each lazily loaded on its first
// request and served under /api/v1/datasets/{name}/ with its own
// execution cache.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/translate"
)

// datasetFlag accumulates repeated -dataset name=path values.
type datasetFlag struct {
	names, paths []string
}

func (f *datasetFlag) String() string { return strings.Join(f.names, ",") }

func (f *datasetFlag) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	f.names = append(f.names, name)
	f.paths = append(f.paths, path)
	return nil
}

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "localhost:8080", "listen address")
	papers := flag.Int("papers", 5000, "papers in the generated corpus")
	seed := flag.Int64("seed", 1, "generator seed")
	snapPath := flag.String("snapshot", "", "boot the default dataset from this .etsnap file instead of generating a corpus")
	lazy := flag.Bool("lazy", false, "open snapshots paged instead of resident: boot decodes only the skeleton and each attribute column faults in on demand through a bounded pool (without -lazy every column is decoded at boot and the file's bytes released)")
	pagerSections := flag.Int("pager-sections", 0, "decoded column sections each paged dataset keeps at once (0 = default 64; ignored without -lazy)")
	var extra datasetFlag
	flag.Var(&extra, "dataset", "register a named snapshot dataset as name=path (repeatable; loaded on first request)")
	cacheEntries := flag.Int("cache", 1024, "relations each dataset's execution cache holds, least recently used evicted beyond (minimum 1)")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this (negative disables)")
	maxSessions := flag.Int("max-sessions", 1024, "maximum live sessions (LRU-evicted beyond)")
	pageSize := flag.Int("page-size", 0, "default result rows per response (0 = all; clients may page with offset/limit)")
	maxRows := flag.Int("max-rows", 0, "widest window one request may read; a wider one fails with 413 result_too_large (0 = unbounded); a match is never refused for its size")
	flag.String("spill-dir", "", "ignored: nothing spills (kept so older command lines still parse)")
	flag.Int64("max-spill-bytes", 0, "ignored: nothing spills (kept so older command lines still parse)")
	flag.Parse()

	reg := registry.New(registry.Options{CacheEntries: *cacheEntries})
	// sections is each snapshot dataset's residency: 0 is resident;
	// -lazy pages with -pager-sections, 0 meaning the default and a
	// budget below 1 clamped to 1, as the pool clamps it.
	sections := 0
	if *lazy {
		sections = max(cmp.Or(*pagerSections, snapshot.DefaultPoolSections), 1)
	}
	switch {
	case *snapPath != "":
		// Boot the default dataset from disk: no generation, no
		// translation — the snapshot was both. Resident by default; with
		// -lazy only the skeleton decodes now and columns fault in on
		// demand through the bounded pager.
		start := time.Now()
		ds, err := reg.AddSnapshot("default", *snapPath, sections)
		if err != nil {
			log.Fatal(err)
		}
		if err := ds.Ensure(context.Background()); err != nil {
			log.Fatal(err)
		}
		g := ds.Graph()
		mode := "resident"
		if *lazy {
			mode = "paged: columns fault in on demand"
		}
		log.Printf("loaded %s in %s: %d nodes, %d edges (%s)",
			*snapPath, time.Since(start).Round(time.Millisecond), g.NumNodes(), g.NumEdges(), mode)
	case len(extra.names) > 0:
		// Only -dataset flags: the first named dataset is the default;
		// nothing loads until traffic arrives.
	default:
		log.Printf("generating %d-paper corpus…", *papers)
		db, err := dataset.Generate(dataset.Config{Papers: *papers, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		log.Print("translating to TGDB…")
		tr, err := translate.Translate(db, translate.Options{
			CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
		})
		if err != nil {
			log.Fatal(err)
		}
		stats := tr.Instance.ComputeStats()
		log.Printf("TGDB ready: %d nodes, %d edges (frozen: %v)", stats.Nodes, stats.Edges, tr.Instance.Frozen())
		if _, err := reg.AddGraph("default", tr.Schema, tr.Instance); err != nil {
			log.Fatal(err)
		}
	}
	for i, name := range extra.names {
		if _, err := reg.AddSnapshot(name, extra.paths[i], sections); err != nil {
			log.Fatal(err)
		}
		mode := "deferred"
		if *lazy {
			mode = "deferred, out-of-core"
		}
		log.Printf("registered dataset %q from %s (%s)", name, extra.paths[i], mode)
	}

	srv := server.NewFromRegistry(reg, server.Options{
		CacheEntries: *cacheEntries,
		SessionTTL:   *sessionTTL,
		MaxSessions:  *maxSessions,
		PageSize:     *pageSize,
		MaxRows:      *maxRows,
	})
	fmt.Printf("ETable serving on http://%s/ (cache %d, ttl %s, max sessions %d, page size %d, max rows %d)\n",
		*addr, *cacheEntries, *sessionTTL, *maxSessions, *pageSize, *maxRows)
	fmt.Printf("API: /api/v1 (declarative ops; see docs/API.md)\n")
	log.Fatal(http.ListenAndServe(*addr, srv))
}
