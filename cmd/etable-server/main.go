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
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
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
	lazy := flag.Bool("lazy", false, "load snapshots out-of-core: boot decodes only the skeleton, attribute columns fault in on demand through a bounded buffer pool")
	pagerSections := flag.Int("pager-sections", 0, "resident column-section budget per lazy dataset (0 = default; only with -lazy)")
	var extra datasetFlag
	flag.Var(&extra, "dataset", "register a named snapshot dataset as name=path (repeatable; loaded on first request)")
	cacheEntries := flag.Int("cache", 1024, "per-dataset execution cache capacity (relations)")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this (negative disables)")
	maxSessions := flag.Int("max-sessions", 1024, "maximum live sessions (LRU-evicted beyond)")
	pageSize := flag.Int("page-size", 0, "default result rows per response (0 = all; clients may page with offset/limit)")
	maxWorkers := flag.Int("max-workers", 0, "server-wide worker cap for intra-query parallelism (0 = GOMAXPROCS, negative = serial)")
	parallelism := flag.Int("parallelism", 0, "default per-request parallelism budget (0 = min(4, GOMAXPROCS); requests may override with ?parallelism=)")
	maxRows := flag.Int("max-rows", 0, "row threshold past which a result spills to disk, or fails with 413 result_too_large when spilling is off (0 = unbounded)")
	spillDir := flag.String("spill-dir", "", "directory for spill run files (empty = system temp dir; \"off\" disables spilling and restores strict -max-rows rejection)")
	maxSpillBytes := flag.Int64("max-spill-bytes", 0, "maximum bytes one query may spill to disk (0 = unbounded; exceeding fails with 413 result_too_large)")
	flag.Parse()

	reg := registry.New(registry.Options{CacheEntries: *cacheEntries})
	snapOpt := registry.SnapshotOptions{Lazy: *lazy, PoolSections: *pagerSections}
	switch {
	case *snapPath != "" && *lazy:
		// Out-of-core boot: decode only the skeleton now; columns fault
		// in on demand through the bounded pager.
		start := time.Now()
		ds, err := reg.AddSnapshotOpts("default", *snapPath, snapOpt)
		if err != nil {
			log.Fatal(err)
		}
		if err := ds.Ensure(context.Background()); err != nil {
			log.Fatal(err)
		}
		g := ds.Graph()
		log.Printf("opened %s out-of-core in %s: %d nodes, %d edges (columns page in on demand)",
			*snapPath, time.Since(start).Round(time.Millisecond), g.NumNodes(), g.NumEdges())
	case *snapPath != "":
		// Boot the default dataset from disk: no generation, no
		// translation — the snapshot was both.
		start := time.Now()
		snap, err := snapshot.Load(*snapPath)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := reg.AddGraph("default", snap.Schema, snap.Graph); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %s in %s: %d nodes, %d edges (%d bytes)",
			*snapPath, time.Since(start).Round(time.Millisecond),
			snap.Info.Nodes, snap.Info.Edges, snap.Info.Bytes)
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
		if _, err := reg.AddSnapshotOpts(name, extra.paths[i], snapOpt); err != nil {
			log.Fatal(err)
		}
		mode := "deferred"
		if *lazy {
			mode = "deferred, out-of-core"
		}
		log.Printf("registered dataset %q from %s (%s)", name, extra.paths[i], mode)
	}

	srv := server.NewFromRegistry(reg, server.Options{
		CacheEntries:  *cacheEntries,
		SessionTTL:    *sessionTTL,
		MaxSessions:   *maxSessions,
		PageSize:      *pageSize,
		MaxWorkers:    *maxWorkers,
		Parallelism:   *parallelism,
		MaxRows:       *maxRows,
		SpillDir:      *spillDir,
		MaxSpillBytes: *maxSpillBytes,
	})
	spillInfo := "off"
	if *maxRows > 0 && *spillDir != "off" {
		spillInfo = *spillDir
		if spillInfo == "" {
			spillInfo = os.TempDir()
		}
	}
	fmt.Printf("ETable serving on http://%s/ (cache %d, ttl %s, max sessions %d, page size %d, workers %d, parallelism %d, max rows %d, spill %s)\n",
		*addr, *cacheEntries, *sessionTTL, *maxSessions, *pageSize, *maxWorkers, *parallelism, *maxRows, spillInfo)
	fmt.Printf("API: /api/v1 (declarative ops; see docs/API.md) — legacy /api/* routes are deprecated aliases\n")
	log.Fatal(http.ListenAndServe(*addr, srv))
}
