package main

// Script generation. A script list is count-based and fully generated
// up front from (workload, seed, client, seconds): the same arguments
// give a byte-identical request sequence, so two commits are compared
// on the same op population and the server only ever sees generated
// requests. Nothing here touches the server or the engine — operands
// that depend on data (a clicked node, a continuation cursor, an
// exported history) are left as Dyn placeholders the oracle pass
// resolves, after which the HTTP run is pure replay.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
)

// The four workloads. BENCHMARK.json and bench/README.md carry the
// reason each exists.
const (
	wlStudyMix    = "study_mix"
	wlColdExplore = "cold_explore"
	wlPageScan    = "page_scan"
	wlOutOfCore   = "outofcore_mix"
)

var workloadNames = []string{wlStudyMix, wlColdExplore, wlPageScan, wlOutOfCore}

// numClients is the closed-loop client count: one keep-alive connection
// each, matching the host's two CPUs.
const numClients = 2

// tasksPerSecond freezes, per workload, how many scripts one client is
// given for each second of --seconds. The values were measured at the
// commit that introduced the benchmark so that the sampled part of a
// list takes about --seconds there; they are constants, not tuned per
// run, so a faster commit finishes its list sooner and a slower one
// later (up to the run's cut-off).
var tasksPerSecond = map[string]float64{
	wlStudyMix:    47,
	wlColdExplore: 36,
	wlPageScan:    13,
	wlOutOfCore:   22,
}

// minTasks keeps the tiniest (smoke) lists long enough to visit every
// task template and one session hand-over.
const minTasks = 12

// warmShare is the leading share of every client's list that is
// executed and verified but not sampled.
const warmShare = 0.1

// Session-shape constants shared by the generators.
const (
	tasksPerSession = 8   // study_mix, cold_explore: scripts served by one session
	studyPageSize   = 50  // the server's -page-size; a bare op response renders this window
	coldLimit       = 10  // cold_explore renders ?limit=10 windows
	scanLimit       = 100 // page_scan reads 100-row pages …
	scanLimitSmoke  = 50  // … and 50-row ones of the smoke corpus's 1,000 authors
	scanPages       = 12  // cursor pages followed after each op of page_scan
	scanGroups      = 6   // op+pages groups per page_scan session
)

// Dyn placeholders: what the oracle pass substitutes from the same
// client's previous response (dynLog: its last history export).
const (
	dynNode   = "node"   // "{node}" in Body ← first row's node id
	dynCursor = "cursor" // "{cursor}" in Path ← nextCursor
	dynLog    = "log"    // Body ← {"ops","cursor"} of the exported history
)

// sidPlaceholder stands for the live session id in a Path; it is only
// known at run time because two clients race for ids.
const sidPlaceholder = "{sid}"

// request is one generated HTTP request.
type request struct {
	// Kind is the per-op-kind bucket: an op kind of the protocol, or
	// create / page / history / replay.
	Kind   string `json:"kind"`
	Method string `json:"method"`
	Path   string `json:"path"`
	Body   string `json:"body,omitempty"`
	Dyn    string `json:"dyn,omitempty"`
	// Off and Lim are the row window the response renders; the traced
	// pass steps its twin session with them.
	Off int `json:"off"`
	Lim int `json:"lim"`
	// Task is the script the request belongs to (-1: session
	// bookkeeping between scripts).
	Task int `json:"task"`

	// want is filled by the oracle pass.
	want *expect
}

// singleOp reports whether the request is a single-op POST …/ops, the
// population of op_p50_ms / op_p95_ms: every kind that is not session
// bookkeeping or a window read.
func (r *request) singleOp() bool {
	switch r.Kind {
	case "create", "history", "replay", "page":
		return false
	}
	return true
}

// pools are the parameter domains scripts draw from. They are derived
// from the corpus alone (never from the seed), so every seed draws from
// the same domain and only the order and pairing change.
type pools struct {
	Conferences  []string
	Countries    []string
	Years        []int
	Authors      []string
	Institutions []string
	Papers       []string
	// Grams are frequent lower-case 2-grams of author names, for
	// cold_explore's LIKE predicates.
	Grams []string
}

// cycle deals the indices 0..n-1 in a seeded order, reshuffling each
// time the deck runs out: every value is used equally often, so two
// seeds give the same parameter population in a different order.
type cycle struct {
	rng  *rand.Rand
	deck []int
	pos  int
}

func newCycle(rng *rand.Rand, n int) *cycle {
	c := &cycle{rng: rng, deck: make([]int, n)}
	for i := range c.deck {
		c.deck[i] = i
	}
	c.pos = n
	return c
}

func (c *cycle) next() int {
	if c.pos == len(c.deck) {
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
		c.pos = 0
	}
	v := c.deck[c.pos]
	c.pos++
	return v
}

// scriptRNG seeds one client's generator. outofcore_mix shares
// study_mix's stream: it is a prefix of that list by construction.
func scriptRNG(workload string, seed int64, client int) *rand.Rand {
	if workload == wlOutOfCore {
		workload = wlStudyMix
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", workload, seed, client)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// taskCount is the number of scripts one client runs: the warm-up part
// plus a sampled part sized to seconds.
func taskCount(workload string, seconds float64, smoke bool) int {
	n := tasksPerSecond[workload] * seconds / (1 - warmShare)
	if smoke {
		n /= 20
	}
	return max(minTasks, int(math.Round(n)))
}

// generate builds one client's request list.
func generate(workload string, seed int64, client int, seconds float64, smoke bool, p pools) ([]request, error) {
	rng := scriptRNG(workload, seed, client)
	n := taskCount(workload, seconds, smoke)
	switch workload {
	case wlStudyMix:
		return genStudy(rng, n, p), nil
	case wlOutOfCore:
		// The same list, cut at a script boundary: never longer than
		// study_mix's own.
		full := genStudy(rng, taskCount(wlStudyMix, seconds, smoke), p)
		return prefixTasks(full, n), nil
	case wlColdExplore:
		return genCold(rng, n, client, p), nil
	case wlPageScan:
		lim := scanLimit
		if smoke {
			lim = scanLimitSmoke
		}
		return genScan(rng, n, lim), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
}

// prefixTasks cuts a list before the first request of script n.
func prefixTasks(reqs []request, n int) []request {
	for i, r := range reqs {
		if r.Task >= n {
			// Drop session bookkeeping that only serves the cut script.
			for i > 0 && reqs[i-1].Task < 0 {
				i--
			}
			return reqs[:i]
		}
	}
	return reqs
}

// scriptBoundary returns the index of the first script boundary at or
// past the given share of the list (the list's length if there is
// none). Session bookkeeping stays with the script it precedes.
func scriptBoundary(reqs []request, share float64) int {
	target := int(math.Ceil(share * float64(len(reqs))))
	for i := max(target, 1); i < len(reqs); i++ {
		if reqs[i].Task != reqs[i-1].Task && reqs[i-1].Task >= 0 {
			return i
		}
	}
	return len(reqs)
}

// warmBoundary returns the index of the first sampled request.
func warmBoundary(reqs []request) int { return scriptBoundary(reqs, warmShare) }

// scriptBytes is the canonical serialization the determinism tests
// compare.
func scriptBytes(reqs []request) []byte {
	buf, err := json.Marshal(reqs)
	if err != nil {
		panic(err) // plain strings and ints cannot fail to encode
	}
	return buf
}

func quote(s string) string { return strings.ReplaceAll(s, "'", "''") }

func jsonString(s string) string {
	buf, _ := json.Marshal(s)
	return string(buf)
}

// builder accumulates one client's list and tracks the history cursor
// of the live session, which revert ops need as an operand.
type builder struct {
	reqs   []request
	task   int
	cursor int // history index after the last op; -1 = nothing open
}

const sessionPath = "/api/v1/sessions/" + sidPlaceholder

func (b *builder) create() {
	b.reqs = append(b.reqs, request{Kind: "create", Method: "POST", Path: "/api/v1/sessions", Task: -1})
	b.cursor = -1
}

// op appends a single-op POST rendering the [0, lim) window.
func (b *builder) op(kind, body string, lim int) {
	path := sessionPath + "/ops"
	if lim != studyPageSize {
		path += fmt.Sprintf("?limit=%d", lim)
	}
	r := request{Kind: kind, Method: "POST", Path: path, Body: body, Lim: lim, Task: b.task}
	if strings.Contains(body, "{node}") {
		r.Dyn = dynNode
	}
	b.reqs = append(b.reqs, r)
	if kind != "revert" {
		b.cursor++
	}
}

func (b *builder) open(table string, lim int) {
	b.op("open", `{"op":"open","table":`+jsonString(table)+`}`, lim)
}
func (b *builder) filter(cond string, lim int) {
	b.op("filter", `{"op":"filter","cond":`+jsonString(cond)+`}`, lim)
}
func (b *builder) filterNeighbor(column, cond string, lim int) {
	b.op("filter_neighbor", `{"op":"filter_neighbor","column":`+jsonString(column)+`,"cond":`+jsonString(cond)+`}`, lim)
}
func (b *builder) pivot(column string, lim int) {
	b.op("pivot", `{"op":"pivot","column":`+jsonString(column)+`}`, lim)
}
func (b *builder) sortCount(column string, desc bool, lim int) {
	b.op("sort", fmt.Sprintf(`{"op":"sort","column":%s,"desc":%v}`, jsonString(column), desc), lim)
}
func (b *builder) sortAttr(attr string, desc bool, lim int) {
	b.op("sort", fmt.Sprintf(`{"op":"sort","attr":%s,"desc":%v}`, jsonString(attr), desc), lim)
}

// page appends an offset/limit window read.
func (b *builder) page(off, lim int) {
	b.reqs = append(b.reqs, request{Kind: "page", Method: "GET",
		Path: fmt.Sprintf("%s?offset=%d&limit=%d", sessionPath, off, lim), Off: off, Lim: lim, Task: b.task})
}

// cursorPage appends a window read continuing from the previous
// response's nextCursor.
func (b *builder) cursorPage(off, lim int) {
	b.reqs = append(b.reqs, request{Kind: "page", Method: "GET",
		Path: sessionPath + "?cursor={cursor}", Dyn: dynCursor, Off: off, Lim: lim, Task: b.task})
}

// handOver exports the live session's history and rebuilds it in a new
// session — the protocol's recovery path after eviction.
func (b *builder) handOver() {
	cur := b.cursor
	b.reqs = append(b.reqs, request{Kind: "history", Method: "GET", Path: sessionPath + "/history", Task: -1})
	b.create()
	b.reqs = append(b.reqs, request{Kind: "replay", Method: "POST", Path: sessionPath + "/replay",
		Dyn: dynLog, Lim: studyPageSize, Task: -1})
	b.cursor = cur
}

// genStudy emits the six Table-2 scripts of internal/study/tasks.go as
// HTTP ops. Script kinds are dealt in shuffled blocks of six and every
// parameter from a cycle, so each seed runs the same population.
// One session serves tasksPerSession scripts; every other session is
// born by exporting its predecessor's history and replaying it.
func genStudy(rng *rand.Rand, n int, p pools) []request {
	const lim = studyPageSize
	kinds := newCycle(rng, 6)
	conf, conf2 := newCycle(rng, len(p.Conferences)), newCycle(rng, len(p.Conferences))
	country, year := newCycle(rng, len(p.Countries)), newCycle(rng, len(p.Years))
	author, inst := newCycle(rng, len(p.Authors)), newCycle(rng, len(p.Institutions))
	paper1, paper2 := newCycle(rng, len(p.Papers)), newCycle(rng, len(p.Papers))

	b := &builder{}
	for t := 0; t < n; t++ {
		b.task = t
		switch {
		case t%(2*tasksPerSession) == 0:
			b.create()
		case t%tasksPerSession == 0:
			b.handOver()
		}
		b.task = t
		hide := "id" // a base column of whatever table the script ends on
		detour := t%5 == 4
		// A script that opens Papers first scrolls the freshly opened
		// table: with the two (mostly short) final reads that puts a
		// steady fifth of the window reads on full Papers pages, so the
		// median page latency sits well inside the short reads and the
		// 95th percentile well inside the full ones, not on an edge.
		openPapers := func() {
			b.open("Papers", lim)
			b.page(lim, lim)
		}
		switch kinds.next() {
		case 0: // Task 1: the year of a paper.
			openPapers()
			b.filter("title = '"+quote(p.Papers[paper1.next()])+"'", lim)
		case 1: // Task 2: the keywords of a paper.
			openPapers()
			b.filter("title = '"+quote(p.Papers[paper2.next()])+"'", lim)
			b.op("seeall", `{"op":"seeall","node":{node},"column":"Paper_Keywords: keyword"}`, lim)
			hide = "keyword"
		case 2: // Task 3: an author's papers from a year on.
			openPapers()
			b.filterNeighbor("Authors", "name = '"+quote(p.Authors[author.next()])+"'", lim)
			b.filter(fmt.Sprintf("year >= %d", p.Years[year.next()]), lim)
		case 3: // Task 4: an institution's papers at a conference.
			b.open("Institutions", lim)
			b.filter("name = '"+quote(p.Institutions[inst.next()])+"'", lim)
			b.pivot("Authors", lim)
			b.pivot("Papers", lim)
			b.filterNeighbor("Conferences", "acronym = '"+quote(p.Conferences[conf.next()])+"'", lim)
		case 4: // Task 5: the institution of a country with most researchers.
			b.open("Institutions", lim)
			b.filter("country like '%"+quote(p.Countries[country.next()])+"%'", lim)
			b.sortCount("Authors", true, lim)
		case 5: // Task 6: the top researchers of a conference, then the first one.
			b.open("Conferences", lim)
			b.filter("acronym = '"+quote(p.Conferences[conf2.next()])+"'", lim)
			b.pivot("Papers", lim)
			b.pivot("Authors", lim)
			b.sortCount("Papers", true, lim)
			b.op("single", `{"op":"single","node":{node}}`, lim)
		}
		if detour {
			// Presentation detour: hide a column, then undo it through
			// the history.
			b.op("hide", `{"op":"hide","column":`+jsonString(hide)+`}`, lim)
			b.op("revert", fmt.Sprintf(`{"op":"revert","index":%d}`, b.cursor-1), lim)
			b.cursor--
		}
		// The reader scrolls: two window reads past the first page.
		b.page(lim, lim)
		b.page(2*lim, lim)
	}
	return b.reqs
}

// genCold emits scripts whose every non-open op has a signature no
// other op of the run shares: the page_start threshold carries a
// fraction unique to (client, script), and everything after it inherits
// the uniqueness through the pattern.
func genCold(rng *rand.Rand, n, client int, p pools) []request {
	const lim = coldLimit
	// Thresholds spread over the lower part of page_start's 1..1400
	// domain, so every script matches a five-figure row count.
	base := newCycle(rng, 48)
	gram := newCycle(rng, len(p.Grams))
	b := &builder{}
	for t := 0; t < n; t++ {
		if t%tasksPerSession == 0 {
			b.create()
		}
		b.task = t
		b.open("Papers", lim)
		b.filter(fmt.Sprintf("page_start >= %d.%06d", 1+base.next()*12, client*500000+t+1), lim)
		b.filterNeighbor("Authors", "name like '%"+p.Grams[gram.next()]+"%'", lim)
		b.pivot("Authors", lim)
		b.pivot("Institutions", lim)
		// Three short window reads, so that page latency has the
		// samples a 95th percentile needs; they cost a fiftieth of the
		// script.
		for w := 1; w <= 3; w++ {
			b.page(w*lim, lim)
		}
	}
	return b.reqs
}

// scanSort is one re-sort a page_scan reader applies before scanning on.
type scanSort struct {
	column, attr string
	desc         bool
}

// scanTables are dealt two Papers sessions to one Authors session: a
// 100-row Papers page is over a megabyte of JSON and an Authors page a
// tenth of that, and an even split would put the median page latency on
// the edge between the two.
var scanTables = []struct {
	table string
	sorts []scanSort
}{
	{"Papers", papersSorts}, {"Papers", papersSorts},
	{"Authors", []scanSort{
		{column: "Papers", desc: true}, {attr: "name"}, {column: "Papers"},
		{attr: "name", desc: true}, {attr: "institution_id"},
	}},
}

var papersSorts = []scanSort{
	{column: "Authors", desc: true}, {column: "Papers (referencing)", desc: true},
	{column: "Paper_Keywords: keyword", desc: true}, {attr: "year", desc: true},
	{attr: "page_start"}, {column: "Papers (referenced)", desc: true}, {attr: "title"},
}

// genScan emits reading scripts: open a large table, then scanGroups
// times (re-sort and) follow nextCursor through scanPages pages of
// lim rows. A script is one group — the op and the pages read under it;
// n counts groups.
func genScan(rng *rand.Rand, n, lim int) []request {
	table := newCycle(rng, len(scanTables))
	b := &builder{}
	for t := 0; t < n; {
		b.create()
		tb := scanTables[table.next()]
		sorts := newCycle(rng, len(tb.sorts))
		for g := 0; g < scanGroups && t < n; g, t = g+1, t+1 {
			b.task = t
			if g == 0 {
				b.open(tb.table, lim)
			} else if s := tb.sorts[sorts.next()]; s.attr != "" {
				b.sortAttr(s.attr, s.desc, lim)
			} else {
				b.sortCount(s.column, s.desc, lim)
			}
			for pg := 1; pg <= scanPages; pg++ {
				b.cursorPage(pg*lim, lim)
			}
		}
	}
	return b.reqs
}
