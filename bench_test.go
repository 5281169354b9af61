// Benchmarks regenerating the paper's tables and figures, plus ablations
// of the design choices the packages document. One benchmark per
// experiment. The corpus here is mid-sized (4000 papers) so the suite
// completes quickly; cmd/etable-study runs the paper-scale 38k corpus.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/etable"
	"repro/internal/ops"
	"repro/internal/relational"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/sqlexec"
	"repro/internal/storage"
	"repro/internal/study"
	"repro/internal/tgm"
	"repro/internal/translate"
)

var (
	benchOnce  sync.Once
	benchDB    *relational.DB
	benchTr    *translate.Result
	benchStore *storage.Store
	benchErr   error
)

func fixtures(b *testing.B) (*relational.DB, *translate.Result, *storage.Store) {
	b.Helper()
	benchOnce.Do(func() {
		benchDB, benchErr = dataset.Generate(dataset.Config{Papers: 4000, Seed: 1})
		if benchErr != nil {
			return
		}
		benchTr, benchErr = translate.Translate(benchDB, translate.Options{
			CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
		})
		if benchErr != nil {
			return
		}
		benchStore, benchErr = storage.FromGraph(benchTr.Instance)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDB, benchTr, benchStore
}

// figure1Pattern is the Figure 1 query: SIGMOD papers with a %user%
// keyword, pivoted to Papers.
func figure1Pattern(b *testing.B, tr *translate.Result) *etable.Pattern {
	b.Helper()
	p, err := etable.Initiate(tr.Schema, "Papers")
	if err != nil {
		b.Fatal(err)
	}
	steps := []func() error{
		func() (e error) { p, e = etable.Add(tr.Schema, p, "Papers→Paper_Keywords: keyword"); return },
		func() (e error) { p, e = etable.Select(p, "keyword like '%user%'"); return },
		func() (e error) { p, e = etable.Shift(p, "Papers"); return },
		func() (e error) { p, e = etable.Add(tr.Schema, p, "Papers→Conferences"); return },
		func() (e error) { p, e = etable.Select(p, "acronym = 'SIGMOD'"); return },
		func() (e error) { p, e = etable.Shift(p, "Papers"); return },
	}
	for _, s := range steps {
		if err := s(); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

// figure7Pattern is the Figure 6/7 query: Korean-institution authors of
// recent SIGMOD papers.
func figure7Pattern(b *testing.B, tr *translate.Result) *etable.Pattern {
	b.Helper()
	p, err := etable.Initiate(tr.Schema, "Conferences")
	if err != nil {
		b.Fatal(err)
	}
	steps := []func() error{
		func() (e error) { p, e = etable.Select(p, "acronym = 'SIGMOD'"); return },
		func() (e error) { p, e = etable.Add(tr.Schema, p, "Papers→Conferences_rev"); return },
		func() (e error) { p, e = etable.Select(p, "year > 2005"); return },
		func() (e error) { p, e = etable.Add(tr.Schema, p, "Paper_Authors"); return },
		func() (e error) { p, e = etable.Add(tr.Schema, p, "Authors→Institutions"); return },
		func() (e error) { p, e = etable.Select(p, "country like '%Korea%'"); return },
		func() (e error) { p, e = etable.Shift(p, "Authors"); return },
	}
	for _, s := range steps {
		if err := s(); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

// BenchmarkFigure1_EnrichedTable regenerates the Figure 1 enriched table
// (query execution + format transformation).
func BenchmarkFigure1_EnrichedTable(b *testing.B) {
	_, tr, _ := fixtures(b)
	p := figure1Pattern(b, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := etable.Execute(tr.Instance, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFigure7_OperatorPipeline measures incremental construction
// AND execution of the full P1-P8 pipeline (every intermediate result is
// executed, as the interactive interface would).
func BenchmarkFigure7_OperatorPipeline(b *testing.B) {
	_, tr, _ := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := etable.Initiate(tr.Schema, "Conferences")
		if err != nil {
			b.Fatal(err)
		}
		ops := []func() error{
			func() (e error) { p, e = etable.Select(p, "acronym = 'SIGMOD'"); return },
			func() (e error) { p, e = etable.Add(tr.Schema, p, "Papers→Conferences_rev"); return },
			func() (e error) { p, e = etable.Select(p, "year > 2005"); return },
			func() (e error) { p, e = etable.Add(tr.Schema, p, "Paper_Authors"); return },
			func() (e error) { p, e = etable.Add(tr.Schema, p, "Authors→Institutions"); return },
			func() (e error) { p, e = etable.Select(p, "country like '%Korea%'"); return },
			func() (e error) { p, e = etable.Shift(p, "Authors"); return },
		}
		for _, op := range ops {
			if err := op(); err != nil {
				b.Fatal(err)
			}
			if _, err := etable.Execute(tr.Instance, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure8_InstanceMatching measures the first execution step of
// §5.4 alone: matching instances through the graph relation algebra,
// as a cache miss computes them (the pattern's reduced node sets).
func BenchmarkFigure8_InstanceMatching(b *testing.B) {
	_, tr, _ := fixtures(b)
	p := figure7Pattern(b, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := etable.MatchOpts(tr.Instance, p, etable.ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if s, _ := m.Set(p.Primary); s.Len() == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkFigure8_FormatTransformation measures the second step alone:
// the presentation prepared from one match (PrepareOpts) and rendered
// in full.
func BenchmarkFigure8_FormatTransformation(b *testing.B) {
	_, tr, _ := fixtures(b)
	p := figure7Pattern(b, tr)
	m, err := etable.MatchOpts(tr.Instance, p, etable.ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, err := etable.PrepareOpts(tr.Instance, p, m, etable.ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pr.WindowOpts(0, -1, etable.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_Translation measures the Appendix A schema + instance
// translation of the whole corpus.
func BenchmarkTable1_Translation(b *testing.B) {
	db, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.Translate(db, translate.Options{
			CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10_UserStudy runs the complete simulated user study
// (both conditions, six tasks, twelve participants).
func BenchmarkFigure10_UserStudy(b *testing.B) {
	db, tr, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := study.RunStudy(tr, db, study.Config{Participants: 12, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range rep.Outcomes {
			if !o.AnswersAgree {
				b.Fatalf("task %d answers disagree", o.Task.ID)
			}
		}
	}
}

// BenchmarkAblation_PartitionedVsMonolithic compares the two SQL
// execution strategies of §6.2 on the storage backend.
func BenchmarkAblation_PartitionedVsMonolithic(b *testing.B) {
	_, tr, st := fixtures(b)
	p := figure7Pattern(b, tr)
	b.Run("monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.ExecutePattern(p, storage.Monolithic); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.ExecutePattern(p, storage.Partitioned); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_DuplicationFactor quantifies §1's motivation: the
// flat SQL join of papers×authors×keywords produces many duplicated
// rows, while the ETable form has one row per paper. The dup_factor
// metric is flat rows per enriched row.
func BenchmarkAblation_DuplicationFactor(b *testing.B) {
	db, tr, _ := fixtures(b)
	sql := `SELECT Papers.title, Authors.name, Paper_Keywords.keyword
		FROM Papers, Paper_Authors, Authors, Paper_Keywords, Conferences
		WHERE Papers.id = Paper_Authors.paper_id
		AND Paper_Authors.author_id = Authors.id
		AND Papers.id = Paper_Keywords.paper_id
		AND Papers.conference_id = Conferences.id
		AND Conferences.acronym = 'SIGMOD'`
	p := figure1Pattern(b, tr)
	var flatRows, etableRows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := sqlexec.ExecSQL(db, sql)
		if err != nil {
			b.Fatal(err)
		}
		res, err := etable.Execute(tr.Instance, p)
		if err != nil {
			b.Fatal(err)
		}
		flatRows, etableRows = len(rel.Rows), res.NumRows()
	}
	if etableRows > 0 {
		b.ReportMetric(float64(flatRows)/float64(etableRows), "dup_factor")
	}
}

// BenchmarkSQL_FiveWayJoin measures the relational substrate on the
// study's hardest query (task 4's five-relation join).
func BenchmarkSQL_FiveWayJoin(b *testing.B) {
	db, _, _ := fixtures(b)
	sql := `SELECT Papers.title FROM Papers, Paper_Authors, Authors, Institutions, Conferences
		WHERE Papers.id = Paper_Authors.paper_id
		AND Paper_Authors.author_id = Authors.id
		AND Authors.institution_id = Institutions.id
		AND Papers.conference_id = Conferences.id
		AND Institutions.country LIKE '%Korea%'
		AND Conferences.acronym = 'SIGMOD'`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlexec.ExecSQL(db, sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataset_Generation measures corpus generation (1000 papers
// per iteration to keep the suite fast; scale is linear).
func BenchmarkDataset_Generation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(dataset.Config{Papers: 1000, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorage_FromGraph measures serializing the TGDB into the
// relational backend tables.
func BenchmarkStorage_FromGraph(b *testing.B) {
	_, tr, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.FromGraph(tr.Instance); err != nil {
			b.Fatal(err)
		}
	}
}

// executeCached is the cache's full render — the prepared
// presentation's all-rows window, which is what the server serves for
// an unpaged read.
func executeCached(c *etable.Cache, g *tgm.InstanceGraph, p *etable.Pattern) (*etable.Result, error) {
	pr, err := c.Prepare(context.Background(), g, p)
	if err != nil {
		return nil, err
	}
	return pr.Window(0, -1)
}

// BenchmarkAblation_MatchCache compares plain re-execution against the
// cache's intermediate-result reuse (§9 future work 2) on the access
// pattern a session produces: the same query re-executed after
// presentation-only actions (Sort, Hide, Revert). The cached arm is the
// server's path: a prepare over the cached match, then a full window.
func BenchmarkAblation_MatchCache(b *testing.B) {
	_, tr, _ := fixtures(b)
	p := figure7Pattern(b, tr)
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := etable.Execute(tr.Instance, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		ex := etable.NewCache(etable.DefaultCacheEntries)
		for i := 0; i < b.N; i++ {
			if _, err := executeCached(ex, tr.Instance, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// serverBenchClient drives the HTTP application server in-process
// (handler invocation, no sockets), so the benchmark measures the
// serving core, not the TCP stack.
type serverBenchClient struct {
	h http.Handler
}

func (c serverBenchClient) do(b *testing.B, method, target string, body any) serverState {
	b.Helper()
	var rd io.Reader
	if body != nil {
		buf := new(bytes.Buffer)
		if err := json.NewEncoder(buf).Encode(body); err != nil {
			b.Fatal(err)
		}
		rd = buf
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	if rec.Code >= 400 {
		b.Fatalf("%s %s = %d: %s", method, target, rec.Code, rec.Body.String())
	}
	var st serverState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		b.Fatalf("%s %s: %v", method, target, err)
	}
	return st
}

type serverState struct {
	ID        int64 `json:"id"`
	TotalRows int   `json:"totalRows"`
	Rows      []struct {
		Node int64 `json:"node"`
	} `json:"rows"`
}

// BenchmarkServerConcurrentSessions is the concurrent serving-core load
// benchmark: every parallel worker owns one session and replays a mixed
// Open → Filter → Pivot → paged-Revert workload with overlapping
// pattern signatures across sessions. Arms ablate the serving core:
//
//   - baseline_globalmutex: one mutex serializes every request and
//     responses encode the full table — the lock is what this arm
//     ablates.
//   - shared_cache: per-session locking plus the shared cross-session
//     cache, still full-table responses.
//   - shared_cache_paged: the full new serving path — shared cache and
//     a 50-row response window.
//
// Run with -cpu 1,2,4,8 to see throughput scale with GOMAXPROCS (the
// baseline cannot scale: its lock admits one request at a time).
func BenchmarkServerConcurrentSessions(b *testing.B) {
	_, tr, _ := fixtures(b)
	conds := []string{"year > 2004", "year > 2008", "year > 2011"}

	workload := func(b *testing.B, h http.Handler, paged bool) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			c := serverBenchClient{h: h}
			id := c.do(b, "POST", "/api/v1/sessions", nil).ID
			opsURL := fmt.Sprintf("/api/v1/sessions/%d/ops", id)
			window := ""
			if paged {
				window = "?limit=50"
			}
			i := 0
			for pb.Next() {
				cond := conds[i%len(conds)]
				if st := c.do(b, "POST", opsURL+window, ops.Open("Papers")); st.TotalRows == 0 {
					b.Fatal("open returned no rows")
				}
				if st := c.do(b, "POST", opsURL+window, ops.Filter(cond)); st.TotalRows == 0 {
					b.Fatalf("filter %q returned no rows", cond)
				}
				if st := c.do(b, "POST", opsURL+window, ops.Pivot("Authors")); st.TotalRows == 0 {
					b.Fatal("pivot returned no rows")
				}
				revertURL := opsURL + "?offset=5"
				if paged {
					revertURL += "&limit=50"
				}
				if st := c.do(b, "POST", revertURL, ops.Revert(0)); st.TotalRows == 0 {
					b.Fatal("revert returned no rows")
				}
				i++
			}
		})
	}

	b.Run("baseline_globalmutex", func(b *testing.B) {
		srv := server.NewWithOptions(tr.Schema, tr.Instance, server.Options{})
		workload(b, &globalMutexHandler{h: srv}, false)
	})
	b.Run("shared_cache", func(b *testing.B) {
		srv := server.NewWithOptions(tr.Schema, tr.Instance, server.Options{})
		workload(b, srv, false)
	})
	b.Run("shared_cache_paged", func(b *testing.B) {
		srv := server.NewWithOptions(tr.Schema, tr.Instance, server.Options{})
		workload(b, srv, true)
	})
}

var (
	scaleOnce sync.Once
	scaleTr   *translate.Result
	scaleErr  error
)

// scaleFixtures is a 12k-paper corpus — big enough that the Figure 7/8
// relations span many morsels.
func scaleFixtures(b *testing.B) *translate.Result {
	b.Helper()
	scaleOnce.Do(func() {
		var db *relational.DB
		if db, scaleErr = dataset.Generate(dataset.Config{Papers: 12000, Seed: 1}); scaleErr != nil {
			return
		}
		scaleTr, scaleErr = translate.Translate(db, translate.Options{
			CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
		})
	})
	if scaleErr != nil {
		b.Fatal(scaleErr)
	}
	return scaleTr
}

// BenchmarkFigure7Pipeline measures page-fetch latency on the Figure
// 7/8 workload (12k-paper corpus): a client viewing a 10-row window of
// the matched result. Arms ablate the presentation pipeline:
//
//   - page_full_render: the pre-windowing serving path — the match is
//     cached, but every page fetch re-prepares over it, renders the
//     ENTIRE result (WindowOpts(0, -1)) and slices 10 rows out. Cost
//     scales with the table.
//   - page_windowed: the windowed path in steady state — the session
//     memoizes the prepared presentation (row order, groupings) and each
//     fetch transforms only the requested 10 rows. Cost scales with the
//     window.
//   - page_windowed_cold: a cold fetch — Prepare over the matched
//     relation plus one window — what the first page after an op costs.
//
// The acceptance target is >= 2x latency and allocs/op between the
// first two arms; PERFORMANCE.md §6 records the measured numbers.
func BenchmarkFigure7Pipeline(b *testing.B) {
	tr := scaleFixtures(b)
	p := figure7Pattern(b, tr)
	matched, err := etable.MatchOpts(tr.Instance, p, etable.ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if matched.Len() == 0 {
		b.Fatal("no matches")
	}
	pres, err := etable.PrepareOpts(tr.Instance, p, matched, etable.ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	offset := pres.NumRows() / 2
	const window = 10

	b.Run("page_full_render", func(b *testing.B) {
		ex := etable.NewCache(etable.DefaultCacheEntries)
		if _, err := executeCached(ex, tr.Instance, p); err != nil { // warm the match cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := executeCached(ex, tr.Instance, p)
			if err != nil {
				b.Fatal(err)
			}
			if got := len(res.Rows[offset : offset+window]); got != window {
				b.Fatalf("window of %d rows", got)
			}
		}
	})
	b.Run("page_windowed", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := pres.Window(offset, window)
			if err != nil {
				b.Fatal(err)
			}
			if res.NumRows() != window || res.Total() != pres.NumRows() {
				b.Fatalf("window = [%d of %d]", res.NumRows(), res.Total())
			}
		}
	})
	b.Run("page_windowed_cold", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr, err := etable.PrepareOpts(tr.Instance, p, matched, etable.ExecOptions{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := pr.Window(offset, window)
			if err != nil {
				b.Fatal(err)
			}
			if res.NumRows() != window {
				b.Fatalf("window of %d rows", res.NumRows())
			}
		}
	})

	// The same page fetch against the full 12k-row Papers table: the
	// windowed arm's cost must not grow with the table (this table has
	// ~80× the rows of the Figure 7 result).
	pPapers, err := etable.Initiate(tr.Schema, "Papers")
	if err != nil {
		b.Fatal(err)
	}
	mPapers, err := etable.MatchOpts(tr.Instance, pPapers, etable.ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	presPapers, err := etable.PrepareOpts(tr.Instance, pPapers, mPapers, etable.ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	offPapers := presPapers.NumRows() / 2
	b.Run("bigtable_full_render", func(b *testing.B) {
		ex := etable.NewCache(etable.DefaultCacheEntries)
		if _, err := executeCached(ex, tr.Instance, pPapers); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := executeCached(ex, tr.Instance, pPapers)
			if err != nil {
				b.Fatal(err)
			}
			if got := len(res.Rows[offPapers : offPapers+window]); got != window {
				b.Fatalf("window of %d rows", got)
			}
		}
	})
	b.Run("bigtable_windowed", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := presPapers.Window(offPapers, window)
			if err != nil {
				b.Fatal(err)
			}
			if res.NumRows() != window {
				b.Fatalf("window of %d rows", res.NumRows())
			}
		}
	})
}

// globalMutexHandler serializes every request behind one lock — the
// serving discipline this PR removed, kept as the benchmark baseline.
type globalMutexHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (g *globalMutexHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.h.ServeHTTP(w, r)
}

// corpusAt memoizes translated corpora by paper count for the
// benchmarks that size their corpus to the workload they model.
var (
	corpusMu sync.Mutex
	corpusBy = map[int]*translate.Result{}
)

func corpusAt(b *testing.B, papers int) *translate.Result {
	b.Helper()
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if tr, ok := corpusBy[papers]; ok {
		return tr
	}
	db, err := dataset.Generate(dataset.Config{Papers: papers, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		b.Fatal(err)
	}
	corpusBy[papers] = tr
	return tr
}

// BenchmarkBootTranslate is the cold-boot baseline: what etable-server
// pays at its 5k-paper default before it can answer the first request —
// generate the corpus, then run the Appendix A translation. Compare
// BenchmarkSnapshotLoad, which boots the same TGDB from an .etsnap file
// (PERFORMANCE.md §9).
func BenchmarkBootTranslate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, err := dataset.Generate(dataset.Config{Papers: 5000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := translate.Translate(db, translate.Options{
			CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad boots the same 5k-paper TGDB from a snapshot
// file: decode and rebuild the frozen graph. The delta to
// BenchmarkBootTranslate is the whole point of
// the persistence tier — a restart pays a disk read, not a re-run of
// generation plus translation.
func BenchmarkSnapshotLoad(b *testing.B) {
	db, err := dataset.Generate(dataset.Config{Papers: 5000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.etsnap")
	n, err := snapshot.SaveFile(path, tr.Instance)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := snapshot.Load(path)
		if err != nil {
			b.Fatal(err)
		}
		if snap.Graph.NumNodes() != tr.Instance.NumNodes() {
			b.Fatal("loaded graph has wrong node count")
		}
	}
}

// BenchmarkLazyBoot boots the same 5k-paper snapshot out of core:
// validate the header and section table, decode the skeleton (IDs,
// column directory, CSR adjacency directory), and return — without
// reading, checksumming, or decoding a single attribute column. The
// delta to BenchmarkSnapshotLoad is what the pager defers; the issue's
// bar is ≥5× faster with ≥10× fewer allocations.
func BenchmarkLazyBoot(b *testing.B) {
	db, err := dataset.Generate(dataset.Config{Papers: 5000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.etsnap")
	n, err := snapshot.SaveFile(path, tr.Instance)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls, err := snapshot.LazyLoad(path, snapshot.LazyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if ls.Graph.NumNodes() != tr.Instance.NumNodes() {
			b.Fatal("lazy graph has wrong node count")
		}
		ls.Close()
	}
}

// BenchmarkColdWindowFault measures first-page latency on a cold
// out-of-core boot: open the snapshot lazily, run the Figure 1 pattern,
// and render the first 10-row window — faulting in only the columns
// that query and window actually touch. The resident-section gauge
// staying below the file's total section count is the out-of-core
// invariant; the benchmark reports both as metrics.
func BenchmarkColdWindowFault(b *testing.B) {
	_, tr, _ := fixtures(b)
	path := filepath.Join(b.TempDir(), "bench.etsnap")
	if _, err := snapshot.SaveFile(path, tr.Instance); err != nil {
		b.Fatal(err)
	}
	p := figure1Pattern(b, tr)
	var resident, total int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls, err := snapshot.LazyLoad(path, snapshot.LazyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		matched, err := etable.MatchOpts(ls.Graph, p, etable.ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		pr, err := etable.PrepareOpts(ls.Graph, p, matched, etable.ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := pr.Window(0, 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty first page")
		}
		st, tot := ls.PagerStats()
		resident, total = st.Len, tot
		if resident >= tot {
			b.Fatalf("first page faulted every section (%d of %d): not out of core", resident, tot)
		}
		ls.Close()
	}
	b.ReportMetric(float64(resident), "resident-sections")
	b.ReportMetric(float64(total), "total-sections")
}

// pageScanRows is the corpus the sort and encode benchmarks run at: the
// op-level benchmark's (bench/run.sh), so a go test -bench row and a
// page_scan layer metric describe the same table.
const pageScanRows = 38000

// servedSnapshotAt saves the papers-sized corpus to a snapshot file in
// the benchmark's temp dir and returns its path. A graph loaded from it
// is the one etable-server serves — CSR adjacency, columns installed
// wholesale — where the translated graph keeps map adjacency.
func servedSnapshotAt(b *testing.B, papers int) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "served.etsnap")
	if _, err := snapshot.SaveFile(path, corpusAt(b, papers).Instance); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkSortedView measures the sort op's ordering stage alone — one
// SortedView over a prepared 38,000-row table of the snapshot-loaded
// graph, no window, no encode — per key class (internal/etable/sort.go):
// a reference count (counting sort over counts), a dense integer
// attribute, a long string attribute (Papers title) and a short one
// (Authors name), the last three over their attribute rank. Each arm
// sorts once before the timer starts, so the rank is built and the arms
// read the steady state; BenchmarkAttrRank measures the build.
// PERFORMANCE.md §12 and §22 record parent vs change.
func BenchmarkSortedView(b *testing.B) {
	snap, err := snapshot.Load(servedSnapshotAt(b, pageScanRows))
	if err != nil {
		b.Fatal(err)
	}
	g := snap.Graph
	prepared := map[string]*etable.Presentation{}
	for _, arm := range []struct {
		name, table string
		spec        etable.SortSpec
	}{
		{"count", "Papers", etable.SortSpec{Column: "Authors", Desc: true}},
		{"dense_int", "Papers", etable.SortSpec{Attr: "year", Desc: true}},
		{"string", "Papers", etable.SortSpec{Attr: "title"}},
		{"string_short", "Authors", etable.SortSpec{Attr: "name"}},
	} {
		pres := prepared[arm.table]
		if pres == nil {
			p, err := etable.Initiate(g.Schema(), arm.table)
			if err != nil {
				b.Fatal(err)
			}
			matched, err := etable.MatchOpts(g, p, etable.ExecOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if pres, err = etable.PrepareOpts(g, p, matched, etable.ExecOptions{}); err != nil {
				b.Fatal(err)
			}
			prepared[arm.table] = pres
		}
		b.Run(arm.name, func(b *testing.B) {
			if _, err := pres.SortedView(arm.spec); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := pres.SortedView(arm.spec)
				if err != nil {
					b.Fatal(err)
				}
				if v.NumRows() != pres.NumRows() {
					b.Fatal("short view")
				}
			}
		})
	}
}

// BenchmarkAttrRank measures the one-time cost of an attribute's rank —
// what the first sort by that attribute pays, once per graph — on the
// 38,000-paper corpus: each iteration opens the snapshot out of core,
// pins the column (untimed), and times the one AttrRank that builds it.
func BenchmarkAttrRank(b *testing.B) {
	path := servedSnapshotAt(b, pageScanRows)
	for _, arm := range []struct{ name, table, attr string }{
		{"title", "Papers", "title"},
		{"name", "Authors", "name"},
		{"page_start", "Papers", "page_start"},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				ls, err := snapshot.LazyLoad(path, snapshot.LazyOptions{})
				if err != nil {
					b.Fatal(err)
				}
				ai := ls.Graph.Schema().NodeType(arm.table).AttrIndex(arm.attr)
				col, release, err := ls.Graph.PinAttrColumn(arm.table, ai)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rank, err := ls.Graph.AttrRank(arm.table, ai)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if len(rank) != col.Len() {
					b.Fatalf("rank of %d rows for a column of %d", len(rank), col.Len())
				}
				release()
				ls.Close()
			}
		})
	}
}

// discardResponse is an http.ResponseWriter that keeps nothing, so
// BenchmarkStateEncode's B/op is the server's, not a recorder's.
type discardResponse struct {
	h      http.Header
	status int
	n      int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// BenchmarkStateEncode measures a page read once the presentation is
// prepared: one GET of the same 100-row Papers window through the
// serving core's handler, so each iteration is session lookup, the
// window's cursor read straight into the response from the label
// fragments, and the write — no match, prepare or Result. MB/s is
// response bytes; B/op is the request's garbage per page (the handler
// and the write; the encoder itself allocates nothing, see
// internal/server BenchmarkWindowEncode).
func BenchmarkStateEncode(b *testing.B) {
	tr := corpusAt(b, pageScanRows)
	srv := server.NewWithOptions(tr.Schema, tr.Instance, server.Options{})
	st := serverBenchClient{srv}.do(b, "POST", "/api/v1/sessions", map[string]any{
		"ops": []map[string]any{{"op": "open", "table": "Papers"}},
	})
	target := fmt.Sprintf("/api/v1/sessions/%d?offset=19000&limit=100", st.ID)
	get := func() *discardResponse {
		w := &discardResponse{h: http.Header{}}
		srv.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		if w.status != http.StatusOK {
			b.Fatalf("GET %s = %d", target, w.status)
		}
		return w
	}
	b.SetBytes(int64(get().n)) // also builds the label fragments
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}
