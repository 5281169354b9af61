package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

func series(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		// Descending, so the helper has to sort.
		out[i] = time.Duration(n-i) * time.Millisecond
	}
	return out
}

func TestPercentileRefusesToInventATail(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want time.Duration // 0 = absent
	}{
		{0, 0.50, 0},
		{19, 0.50, 0},
		{20, 0.50, 10 * time.Millisecond},
		{199, 0.95, 0}, // 9.95 samples beyond
		{200, 0.95, 190 * time.Millisecond},
		{199, 0.50, 100 * time.Millisecond},
		{999, 0.99, 0},
		{1000, 0.99, 990 * time.Millisecond},
		{1000, 0.95, 950 * time.Millisecond},
	}
	for _, c := range cases {
		got, ok := percentile(series(c.n), c.q)
		if ok != (c.want != 0) || got != c.want {
			t.Errorf("percentile(%d samples, %.2f) = %v, %v; want %v", c.n, c.q, got, ok, c.want)
		}
	}
	in := series(40)
	percentile(in, 0.5)
	if in[0] != 40*time.Millisecond {
		t.Error("percentile reordered its input")
	}
}

const statsEager = `{"sessions":2,"pinnedRelations":5,
 "memory":{"heapAllocBytes":1,"heapInuseBytes":2097152,"cacheResidentBytes":1048576,"pinnedRelationBytes":3},
 "planner":{"mode":"auto","feedbackReplans":4},
 "datasets":[{"name":"other","default":false,"cacheHits":999,"cacheMisses":999},
  {"name":"default","default":true,"loaded":true,"cacheHits":%d,"cacheMisses":%d,"planCacheHits":7,"planCacheMisses":3}]}`

const statsPaged = `{"pinnedRelations":1,"memory":{"heapInuseBytes":1},"planner":{"feedbackReplans":4},
 "datasets":[{"name":"default","default":true,"loadMs":6.5,"cacheHits":50,"cacheMisses":20,
  "pager":{"budgetSections":8,"residentSections":8,"faults":30,"evictions":22,"faultMs":12.5},
  "spill":{"spills":3,"runBytes":4096,"mergePasses":1,"faults":2}}]}`

func TestStatsDeltaTreatsOmittedBlocksAsZero(t *testing.T) {
	before, err := parseStats([]byte(fmt.Sprintf(statsEager, 10, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if before.cacheHits != 10 || before.cacheMisses != 4 || before.planHits != 7 || before.pinned != 5 {
		t.Errorf("default dataset misread: %+v", before)
	}
	if before.outOfCoreActivity() {
		t.Errorf("eager stats report out-of-core activity: %+v", before)
	}
	after, err := parseStats([]byte(statsPaged))
	if err != nil {
		t.Fatal(err)
	}
	d := after.sub(before)
	// Cumulative counters difference; the blocks absent before count
	// from zero; gauges keep the later reading.
	if d.cacheHits != 40 || d.cacheMisses != 16 || d.replans != 0 ||
		d.pagerFaults != 30 || d.pagerEvictions != 22 || d.pagerFaultMs != 12.5 ||
		d.spills != 3 || d.spillBytes != 4096 || d.spillMergePasses != 1 || d.spillFaults != 2 ||
		d.pagerResident != 8 || d.pinned != 1 || d.loadMs != 6.5 {
		t.Errorf("delta = %+v", d)
	}
	if !after.outOfCoreActivity() {
		t.Error("paged stats report no out-of-core activity")
	}
	if same := after.sub(after); same.cacheHits != 0 || same.pagerFaults != 0 || same.spills != 0 || same.pagerResident != 8 {
		t.Errorf("self-delta = %+v", same)
	}
	if _, err := parseStats([]byte(`{"datasets":[]}`)); err == nil {
		t.Error("stats without a default dataset accepted")
	}
	if _, err := parseStats([]byte(`{`)); err == nil {
		t.Error("truncated stats accepted")
	}
}

func TestProcParsers(t *testing.T) {
	// The command name may contain spaces and parentheses.
	line := "4242 (etable) server)) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 25 0 0 20 0 5 0 100 1000 200 18446744073709551615"
	cpu, err := parseProcStat(line)
	if err != nil || cpu != 1750*time.Millisecond {
		t.Errorf("parseProcStat = %v, %v; want 1.75s", cpu, err)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
	mb, err := parseVmHWM("Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  323584 kB\nVmRSS:\t 1 kB\n")
	if err != nil || mb != 316 {
		t.Errorf("parseVmHWM = %v, %v; want 316", mb, err)
	}
	for _, bad := range []string{"", "VmHWM: 12 MB\n", "VmHWM: lots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}

func TestProcReadersOnThisHost(t *testing.T) {
	cpu, cpuErr := procCPU(os.Getpid())
	rss, rssErr := procPeakRSS(os.Getpid())
	if runtime.GOOS != "linux" {
		if !errors.Is(cpuErr, errUnsupported) || !errors.Is(rssErr, errUnsupported) {
			t.Fatalf("off Linux the readers must report errUnsupported, got %v / %v", cpuErr, rssErr)
		}
		return
	}
	if cpuErr != nil || rssErr != nil {
		t.Fatalf("procCPU: %v; procPeakRSS: %v", cpuErr, rssErr)
	}
	if cpu < 0 || rss <= 0 {
		t.Errorf("cpu = %v, peak RSS = %v MB", cpu, rss)
	}
	if _, err := procCPU(1 << 30); err == nil {
		t.Error("procCPU of a pid that cannot exist succeeded")
	}
}
