// Command etable-load is the op-level benchmark: it builds the
// paper-scale corpus once, and for one of four browsing workloads boots
// a real etable-server child process, drives it closed-loop over
// loopback HTTP with two clients, verifies every response against an
// in-process oracle, and prints every metric by name and unit — the
// end-to-end ones, or with -trace 1 the per-layer ones. bench/README.md
// documents the workloads, the metrics and the envelope; BENCHMARK.json
// at the repository root is the contract a driver runs it under.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/snapshot"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "etable-load: "+format+"\n", args...)
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	repo     string // root of the checkout to build etable-server from
	work     string // persistent cache: server binary, corpus
	out      string // where traces and result files land
}

// setupBoots is how many times an end-to-end run sets the server up:
// setup_s is the median, which one slow exec cannot move.
const setupBoots = 3

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "script seed: the same seed gives the same request sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the sampled part of a list should take at the commit that froze the counts")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from the untraced run; 1: per-layer metrics, with the traced pass")
	flag.BoolVar(&cfg.smoke, "smoke", false, "1/20 of the counts on a 2,000-paper corpus; metrics the sample cannot support are absent")
	flag.StringVar(&cfg.repo, "repo", ".", "root of the checkout etable-server is built from")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory caching the server binary and the corpus")
	flag.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for trace_<workload>.json and result_<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: etable-load [-workload w] [-seed n] [-seconds s] [-trace 0|1] [-smoke] [-out dir]")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	// SIGINT/SIGTERM cancel the run; the deferred cleanups then kill
	// the server's process group and remove the scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, cfg)
	stop()
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	workloads := []string{cfg.workload}
	if cfg.workload == "all" {
		workloads = workloadNames
	}
	for _, w := range workloads {
		if _, ok := tasksPerSecond[w]; !ok {
			return fmt.Errorf("unknown workload %q (want one of %s, or all)", w, strings.Join(workloadNames, ", "))
		}
	}
	for _, dir := range []*string{&cfg.repo, &cfg.work, &cfg.out} {
		abs, err := filepath.Abs(*dir)
		if err != nil {
			return err
		}
		*dir = abs
	}
	bin, err := buildServer(ctx, cfg)
	if err != nil {
		return err
	}
	papers := paperScalePapers
	if cfg.smoke {
		papers = smokePapers
	}
	corpus, meta, err := ensureCorpus(cfg.work, papers)
	if err != nil {
		return err
	}
	for _, w := range workloads {
		rep, err := runWorkload(ctx, cfg, w, bin, corpus, meta)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		if err := rep.emit(cfg); err != nil {
			return err
		}
	}
	return nil
}

// buildServer compiles cmd/etable-server of the checkout into the work
// directory. The go command's own cache makes the repeat builds cheap.
func buildServer(ctx context.Context, cfg config) (string, error) {
	bin := filepath.Join(cfg.work, "bin", "etable-server")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/etable-server")
	cmd.Dir = cfg.repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building etable-server in %s: %v\n%s", cfg.repo, err, out)
	}
	return bin, nil
}

// report is one workload's outcome.
type report struct {
	workload  string
	defs      []metricDef
	vals      values
	attempted int
	failed    int
	envelope  map[string]any
}

func runWorkload(ctx context.Context, cfg config, workload, bin, corpus string, meta corpusMeta) (*report, error) {
	// Scratch for this run only: the server's log and spill files.
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	loadStart := time.Now()
	snap, err := snapshot.Load(corpus)
	if err != nil {
		return nil, err
	}
	loadMs := ms(time.Since(loadStart))
	p, err := poolsFromGraph(snap.Graph)
	if err != nil {
		return nil, err
	}
	lists := make([][]request, numClients)
	total := 0
	for c := range lists {
		if lists[c], err = generate(workload, cfg.seed, c, cfg.seconds, cfg.smoke, p); err != nil {
			return nil, err
		}
		total += len(lists[c])
	}

	oracleStart := time.Now()
	oracle, err := newEagerServer(snap)
	if err != nil {
		return nil, err
	}
	if err := oraclePass(oracle, lists); err != nil {
		return nil, err
	}
	logf("%s: seed %d, %d requests over %d clients; oracle pass %.1fs",
		workload, cfg.seed, total, numClients, time.Since(oracleStart).Seconds())
	oracle = nil

	rep := &report{workload: workload, vals: values{}}
	if cfg.trace {
		in := traceInputs{loadMs: loadMs, meta: meta}
		traceStart := time.Now()
		// The served copy is fresh — the oracle's caches stay out of it —
		// and the twin steps over a copy of its own.
		served, err := snapshot.Load(corpus)
		if err != nil {
			return nil, err
		}
		lazyStart := time.Now()
		lazy, err := snapshot.LazyLoad(corpus, snapshot.LazyOptions{})
		if err != nil {
			return nil, err
		}
		in.lazyMs = ms(time.Since(lazyStart))
		lazy.Close()
		if in.tr, in.lc, in.srvStats, err = tracedPass(served, snap, lists); err != nil {
			return nil, err
		}
		logf("%s: traced pass, %d requests, %.1fs", workload, in.lc.requests, time.Since(traceStart).Seconds())
		for k, v := range traceLayerValues(in) {
			rep.vals[k] = v
		}
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		if err := in.tr.writeFile(filepath.Join(cfg.out, "trace_"+workload+".json")); err != nil {
			return nil, err
		}
	}
	snap = nil
	runtime.GC() // the harness's copies of the corpus are not the server's memory

	spec := serverSpec{bin: bin, snapshot: corpus, runDir: runDir, workload: workload, smoke: cfg.smoke}
	boots := setupBoots
	if cfg.trace {
		boots = 1 // setup_s is an end-to-end metric
	}
	res, err := runHTTP(ctx, spec, lists, cfg.seconds, boots)
	if err != nil {
		return nil, err
	}
	var first *sample
	skipped := 0
	for _, b := range res.boots {
		if !outOfCore(workload) && b.final.outOfCoreActivity() {
			return nil, fmt.Errorf("pager or spill counters moved on an in-memory workload: %+v", b.final)
		}
		for _, part := range [][][]sample{b.warm, b.sampled} {
			_, failed, firstFailed := flatten(part)
			rep.failed += failed
			if first == nil {
				first = firstFailed
			}
			for _, ss := range part {
				rep.attempted += len(ss)
			}
		}
		skipped += b.skipped
	}
	if first != nil {
		logf("%s: first failing request: client %d, %s %s %s: %v",
			workload, first.client, first.req.Method, first.req.Path, first.req.Body, first.err)
	}
	if skipped > 0 {
		logf("%s: %d requests skipped past the %d× cut-off", workload, skipped, cutoffFactor)
	}

	if cfg.trace {
		rep.defs = perLayer
		for k, v := range httpLayerValues(res) {
			rep.vals[k] = v
		}
	} else {
		rep.defs = endToEnd
		if rep.vals, err = endToEndValues(res); err != nil {
			return nil, err
		}
	}
	rep.envelope = envelope(cfg, res, meta)
	return rep, nil
}

// envelope records what the numbers were measured under.
func envelope(cfg config, res *httpResult, meta corpusMeta) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	var sampledWall, setups, serverCPU []float64
	for _, b := range res.boots {
		var wall time.Duration
		for _, w := range b.wall {
			wall = max(wall, w)
		}
		sampledWall = append(sampledWall, wall.Seconds())
		setups = append(setups, b.setupS)
		serverCPU = append(serverCPU, b.cpu.Seconds())
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs_server": runtime.NumCPU(), "gomaxprocs_loadgen": runtime.GOMAXPROCS(0),
		"gomemlimit_server": res.memLimit, "go": runtime.Version(), "commit": commit,
		"seed": cfg.seed, "seconds": cfg.seconds, "smoke": cfg.smoke, "clients": numClients,
		"server_flags": strings.Join(res.flags, " "), "corpus_papers": meta.Papers,
		"corpus_nodes": meta.Nodes, "corpus_edges": meta.Edges,
		"boots": len(res.boots), "sampled_wall_s": sampledWall, "setup_runs_s": setups,
		"server_cpu_s": serverCPU, "loadgen_cpu_s": res.loadgenCPU.Seconds(),
	}
}

// outMetric is one metric of the final JSON line.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable table to stderr, writes the result
// file, and prints the contract's JSON object as the last line of
// stdout. An end-to-end metric the sample cannot support is an error
// outside smoke mode: full-size lists are sized so that none is.
func (rep *report) emit(cfg config) error {
	metrics := map[string]outMetric{}
	fmt.Fprintf(os.Stderr, "\n%s  (attempted %d, failed %d)\n", rep.workload, rep.attempted, rep.failed)
	var absent []string
	for _, d := range rep.defs {
		v, ok := rep.vals[d.name]
		if !ok {
			absent = append(absent, d.name)
			fmt.Fprintf(os.Stderr, "  %-42s %14s %s\n", d.name, "absent", d.unit)
			// 0 stands for "absent": no latency or count here is ever 0
			// when measured.
			metrics[d.name] = outMetric{Value: 0, Unit: d.unit}
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-42s %14.4f %s\n", d.name, v, d.unit)
		metrics[d.name] = outMetric{Value: v, Unit: d.unit}
	}
	if !cfg.trace && !cfg.smoke && len(absent) > 0 {
		return fmt.Errorf("%s: too few samples for %s", rep.workload, strings.Join(absent, ", "))
	}
	result := map[string]any{
		"correct": rep.failed == 0, "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	result["workload"], result["trace"], result["envelope"] = rep.workload, cfg.trace, rep.envelope
	file, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	kind := "result"
	if cfg.trace {
		kind = "layers"
	}
	if err := os.WriteFile(filepath.Join(cfg.out, kind+"_"+rep.workload+".json"), append(file, '\n'), 0o644); err != nil {
		return err
	}
	envLine, _ := json.Marshal(rep.envelope)
	fmt.Fprintf(os.Stderr, "  envelope: %s\n", envLine)
	if _, err := fmt.Println(string(line)); err != nil {
		return errors.Join(errors.New("writing the result line"), err)
	}
	return nil
}
