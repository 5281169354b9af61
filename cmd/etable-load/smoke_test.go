package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke is the -smoke mode end to end: it builds etable-server from
// the checkout, builds the 2,000-paper corpus, and runs every workload
// at 1/20 of the counts through the oracle and a real child server —
// once for the end-to-end metrics and once traced.
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command to build etable-server with")
	}
	dir := t.TempDir()
	cfg := config{workload: "all", seed: 1, seconds: 10, smoke: true,
		repo: filepath.Join("..", ".."), work: filepath.Join(dir, "work"), out: filepath.Join(dir, "out")}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	for _, trace := range []bool{false, true} {
		cfg.trace = trace
		if err := run(ctx, cfg); err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
	}
	t.Logf("both smoke passes took %s", time.Since(start).Round(time.Millisecond))

	for _, w := range workloadNames {
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct{ Value float64 }
		}
		read := func(name string) {
			t.Helper()
			buf, err := os.ReadFile(filepath.Join(cfg.out, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(buf, &res); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s: correct=%v, %d of %d failed", name, res.Correct, res.Failed, res.Attempted)
			}
		}
		read("result_" + w + ".json")
		for _, m := range []string{"op_p50_ms", "ops_per_s", "cpu_ms_per_op", "rss_peak_mb", "setup_s"} {
			if res.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v", w, m, res.Metrics[m].Value)
			}
		}
		read("layers_" + w + ".json")
		paged := res.Metrics["pager.faults_per_op"].Value > 0
		spilled := res.Metrics["spill.spills_per_op"].Value > 0
		if outOfCore(w) != paged || outOfCore(w) != spilled {
			t.Errorf("%s: pager faults %v, spills %v", w, paged, spilled)
		}
		if res.Metrics["server.handler_us_per_op"].Value <= 0 || res.Metrics["session.window_us_per_op"].Value <= 0 {
			t.Errorf("%s: traced pass recorded no handler or window time", w)
		}
		if _, err := os.Stat(filepath.Join(cfg.out, "trace_"+w+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w, err)
		}
	}
	// The run directories (server log, spill files) are gone; the cache
	// (binary, corpus) stays.
	left, err := filepath.Glob(filepath.Join(cfg.work, "run-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v %v", left, err)
	}
}

// TestBenchmarkFileMatchesTheHarness keeps BENCHMARK.json and the metric
// tables in step: same names, same units, same order.
func TestBenchmarkFileMatchesTheHarness(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the checkout: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
