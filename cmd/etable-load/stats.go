package main

// Measurement helpers: percentiles that refuse to invent a tail,
// /api/v1/stats delta arithmetic, and the /proc readers behind
// cpu_ms_per_op and rss_peak_mb.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, or ok=false when the sample cannot support it: a
// median needs 20 samples, and any higher quantile needs at least ten
// samples beyond it. An absent metric is reported as absent — the
// caller never gets a tail made of two or three requests.
func percentile(samples []time.Duration, q float64) (time.Duration, bool) {
	n := len(samples)
	// The epsilon keeps 200×(1−0.95) on the supported side of 10.
	if n < 20 || (q > 0.5 && float64(n)*(1-q) < 10-1e-9) {
		return 0, false
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return sorted[min(max(rank, 0), n-1)], true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// serverStats is the subset of GET /api/v1/stats the harness reads.
// Pager and Spill are pointers because the server omits the blocks
// until a dataset is paged / has spilled once.
type serverStats struct {
	PinnedRelations int `json:"pinnedRelations"`
	Memory          struct {
		HeapInuseBytes     int64 `json:"heapInuseBytes"`
		CacheResidentBytes int64 `json:"cacheResidentBytes"`
	} `json:"memory"`
	Planner struct {
		FeedbackReplans int64 `json:"feedbackReplans"`
	} `json:"planner"`
	Datasets []struct {
		Default         bool    `json:"default"`
		LoadMs          float64 `json:"loadMs"`
		CacheHits       int64   `json:"cacheHits"`
		CacheMisses     int64   `json:"cacheMisses"`
		PlanCacheHits   int64   `json:"planCacheHits"`
		PlanCacheMisses int64   `json:"planCacheMisses"`
		Pager           *struct {
			ResidentSections int     `json:"residentSections"`
			Faults           int64   `json:"faults"`
			Evictions        int64   `json:"evictions"`
			FaultMs          float64 `json:"faultMs"`
		} `json:"pager"`
		Spill *struct {
			Spills      int64 `json:"spills"`
			RunBytes    int64 `json:"runBytes"`
			MergePasses int64 `json:"mergePasses"`
			Faults      int64 `json:"faults"`
		} `json:"spill"`
	} `json:"datasets"`
}

// counters is one flattened reading of the default dataset's counters:
// absent pager/spill blocks read as zero.
type counters struct {
	cacheHits, cacheMisses         int64
	planHits, planMisses, replans  int64
	pagerFaults, pagerEvictions    int64
	pagerFaultMs                   float64
	pagerResident                  int
	spills, spillBytes             int64
	spillMergePasses, spillFaults  int64
	pinned                         int
	heapInuseBytes, cacheResidentB int64
	loadMs                         float64
}

func parseStats(body []byte) (counters, error) {
	var st serverStats
	if err := json.Unmarshal(body, &st); err != nil {
		return counters{}, fmt.Errorf("decoding /api/v1/stats: %w", err)
	}
	c := counters{
		replans:        st.Planner.FeedbackReplans,
		pinned:         st.PinnedRelations,
		heapInuseBytes: st.Memory.HeapInuseBytes,
		cacheResidentB: st.Memory.CacheResidentBytes,
	}
	for _, d := range st.Datasets {
		if !d.Default {
			continue
		}
		c.cacheHits, c.cacheMisses = d.CacheHits, d.CacheMisses
		c.planHits, c.planMisses = d.PlanCacheHits, d.PlanCacheMisses
		c.loadMs = d.LoadMs
		if d.Pager != nil {
			c.pagerFaults, c.pagerEvictions = d.Pager.Faults, d.Pager.Evictions
			c.pagerFaultMs, c.pagerResident = d.Pager.FaultMs, d.Pager.ResidentSections
		}
		if d.Spill != nil {
			c.spills, c.spillBytes = d.Spill.Spills, d.Spill.RunBytes
			c.spillMergePasses, c.spillFaults = d.Spill.MergePasses, d.Spill.Faults
		}
		return c, nil
	}
	return counters{}, errors.New("/api/v1/stats lists no default dataset")
}

// sub returns the growth of the cumulative counters from before to c;
// gauges (resident sections, pins, heap, cache bytes, load time) keep
// c's reading.
func (c counters) sub(before counters) counters {
	d := c
	d.cacheHits -= before.cacheHits
	d.cacheMisses -= before.cacheMisses
	d.planHits -= before.planHits
	d.planMisses -= before.planMisses
	d.replans -= before.replans
	d.pagerFaults -= before.pagerFaults
	d.pagerEvictions -= before.pagerEvictions
	d.pagerFaultMs -= before.pagerFaultMs
	d.spills -= before.spills
	d.spillBytes -= before.spillBytes
	d.spillMergePasses -= before.spillMergePasses
	d.spillFaults -= before.spillFaults
	return d
}

// add returns c with earlier's cumulative counters added to it — the
// sum of two consecutive growths. Gauges keep c's reading.
func (c counters) add(earlier counters) counters {
	c.cacheHits += earlier.cacheHits
	c.cacheMisses += earlier.cacheMisses
	c.planHits += earlier.planHits
	c.planMisses += earlier.planMisses
	c.replans += earlier.replans
	c.pagerFaults += earlier.pagerFaults
	c.pagerEvictions += earlier.pagerEvictions
	c.pagerFaultMs += earlier.pagerFaultMs
	c.spills += earlier.spills
	c.spillBytes += earlier.spillBytes
	c.spillMergePasses += earlier.spillMergePasses
	c.spillFaults += earlier.spillFaults
	return c
}

// outOfCoreActivity reports whether any pager or spill counter moved —
// which must never happen on an in-memory workload.
func (c counters) outOfCoreActivity() bool {
	return c.pagerFaults != 0 || c.pagerEvictions != 0 || c.pagerFaultMs != 0 || c.pagerResident != 0 ||
		c.spills != 0 || c.spillBytes != 0 || c.spillMergePasses != 0 || c.spillFaults != 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// errUnsupported is what the /proc readers return off Linux: the
// metrics they feed are then reported as unavailable, not as zero.
var errUnsupported = errors.New("process accounting needs Linux /proc")

// clockTick is the kernel's USER_HZ. It is 100 on every Linux port Go
// supports; sysconf is not reachable without cgo.
const clockTick = 100

// procCPU returns the CPU time (user + system) the process has used.
func procCPU(pid int) (time.Duration, error) {
	if runtime.GOOS != "linux" {
		return 0, errUnsupported
	}
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(buf))
}

// parseProcStat extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", line)
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", line)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("non-numeric CPU fields in /proc stat line %q", line)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSS returns the process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	if runtime.GOOS != "linux" {
		return 0, errUnsupported
	}
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(buf))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return float64(kb) / 1024, nil
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
