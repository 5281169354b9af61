package main

// Metric definitions and their computation. The names and units here
// are the ones BENCHMARK.json declares; bench/README.md gives each
// one's definition and which end-to-end number it should move.

import (
	"errors"
	"fmt"
	"time"
)

// metricDef declares one metric.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (workloads are sized so the percentile rule holds).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"}, {"op_p95_ms", "ms"},
	{"page_p50_ms", "ms"}, {"page_p95_ms", "ms"},
	{"task_p50_ms", "ms"},
	{"ops_per_s", "req/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// opKinds are the request kinds of the per-op-kind latency table.
var opKinds = []string{"create", "open", "filter", "filter_neighbor", "pivot", "sort",
	"seeall", "single", "hide", "revert", "replay", "page"}

// perLayer lists the single-layer metrics, in print order. A value of 0
// for a percentile means "absent": too few samples for that quantile
// on this workload.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, k := range opKinds {
		defs = append(defs, metricDef{"server.op." + k + ".p50_ms", "ms"}, metricDef{"server.op." + k + ".p95_ms", "ms"})
	}
	return append(defs, []metricDef{
		// HTTP run: response bodies and /api/v1/stats growth.
		{"server.op_p99_ms", "ms"}, {"server.page_p99_ms", "ms"}, {"server.over_100ms_ratio", "ratio"},
		{"server.resp_bytes_per_op", "bytes"}, {"server.resp_bytes_per_page", "bytes"}, {"server.heap_inuse_mb", "MB"},
		{"etable.cache_misses_per_op", "count"}, {"etable.cache_hit_ratio", "ratio"}, {"etable.cache_misses", "count"},
		{"etable.plan_cache_hit_ratio", "ratio"}, {"etable.feedback_replans", "count"},
		{"etable.pinned_relations", "count"}, {"etable.cache_resident_mb", "MB"},
		{"pager.faults_per_op", "count"}, {"pager.evictions_per_op", "count"}, {"pager.fault_ms_per_op", "ms"},
		{"pager.resident_sections", "count"}, {"pager.fault_share", "ratio"},
		{"spill.spills_per_op", "count"}, {"spill.run_kb_per_op", "KB"}, {"spill.merge_passes", "count"},
		{"spill.faults_per_op", "count"},
		{"registry.load_ms", "ms"},
		// Traced pass: spans around the layers' public functions.
		{"http.transport_us_per_op", "us"}, {"server.handler_us_per_op", "us"}, {"server.self_us_per_op", "us"},
		{"ops.decode_us_per_op", "us"}, {"ops.compile_us_per_op", "us"},
		{"session.apply_us_per_op", "us"}, {"session.window_us_per_op", "us"}, {"session.replay_us_per_log", "us"},
		{"etable.plan_us_per_op", "us"}, {"etable.plan_warm_us_per_op", "us"}, {"etable.match_us_per_op", "us"},
		{"etable.prepare_us_per_op", "us"}, {"etable.sort_us_per_op", "us"}, {"etable.window_us_per_page", "us"},
		{"graphrel.matched_rows_per_op", "count"}, {"graphrel.rows_examined_per_row_returned", "ratio"},
		{"graphrel.match_ns_per_row", "ns"},
		{"expr.compile_us_per_cond", "us"},
		{"snapshot.load_ms", "ms"}, {"snapshot.lazy_open_ms", "ms"}, {"snapshot.file_mb", "MB"},
		{"snapshot.bytes_per_edge", "bytes"}, {"snapshot.save_s", "s"},
		{"dataset.generate_s", "s"}, {"translate.translate_s", "s"},
		{"etable.unattributed_ratio", "ratio"},
		{"trace.req_p50_ms", "ms"},
	}...)
}()

// values maps metric name → measured value; a missing key is an absent
// metric.
type values map[string]float64

func (v values) setPercentile(name string, samples []time.Duration, q float64) {
	if d, ok := percentile(samples, q); ok {
		v[name] = ms(d)
	}
}

// flatten returns the OK samples of all clients, and the count of
// failed ones.
func flatten(perClient [][]sample) (ok []sample, failed int, firstErr *sample) {
	for _, ss := range perClient {
		for i := range ss {
			if ss[i].err != nil {
				failed++
				if firstErr == nil || ss[i].start.Before(firstErr.start) {
					firstErr = &ss[i]
				}
				continue
			}
			ok = append(ok, ss[i])
		}
	}
	return ok, failed, firstErr
}

func durations(ss []sample, keep func(*request) bool) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if keep(s.req) {
			out = append(out, s.dur)
		}
	}
	return out
}

// taskDurations returns the wall time of every completed script: first
// request written → last response read, the client's own verification
// between requests included.
func taskDurations(perClient [][]sample) []time.Duration {
	var out []time.Duration
	for _, ss := range perClient {
		for i := 0; i < len(ss); {
			j := i
			failed := false
			for j < len(ss) && ss[j].req.Task == ss[i].req.Task {
				failed = failed || ss[j].err != nil
				j++
			}
			if ss[i].req.Task >= 0 && !failed {
				out = append(out, ss[j-1].start.Add(ss[j-1].dur).Sub(ss[i].start))
			}
			i = j
		}
	}
	return out
}

// union gathers every boot's sampled chunk, per client, in list order.
func (res *httpResult) union() [][]sample {
	var out [][]sample
	for _, b := range res.boots {
		for c, ss := range b.sampled {
			if c == len(out) {
				out = append(out, nil)
			}
			out[c] = append(out[c], ss...)
		}
	}
	return out
}

// medianOverBoots is the median of f over the boots whose chunk was not
// empty: one disturbed boot out of three does not move it.
func (res *httpResult) medianOverBoots(f func(*bootResult) float64) float64 {
	var xs []float64
	for i := range res.boots {
		if b := &res.boots[i]; b.requests() > 0 {
			xs = append(xs, f(b))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return medianFloat(xs)
}

// endToEndValues computes the end-to-end metrics of one HTTP run.
// Latency percentiles are taken over the union of the boots' samples
// (a per-boot p95 would need three times the requests); rates, CPU,
// memory and set-up are measured per boot and reported as the median.
func endToEndValues(res *httpResult) (values, error) {
	v := values{}
	sampled := res.union()
	ok, _, _ := flatten(sampled)
	opDur := durations(ok, (*request).singleOp)
	pageDur := durations(ok, func(r *request) bool { return r.Kind == "page" })
	v.setPercentile("op_p50_ms", opDur, 0.50)
	v.setPercentile("op_p95_ms", opDur, 0.95)
	v.setPercentile("page_p50_ms", pageDur, 0.50)
	v.setPercentile("page_p95_ms", pageDur, 0.95)
	v.setPercentile("task_p50_ms", taskDurations(sampled), 0.50)

	for i := range res.boots {
		if b := &res.boots[i]; b.cpuErr != nil || b.rssErr != nil {
			return nil, fmt.Errorf("cpu_ms_per_op, rss_peak_mb: %w", errors.Join(b.cpuErr, b.rssErr))
		}
	}
	// Each client's own completion rate, summed: the two lists never
	// end at the same instant, and the tail where one client runs alone
	// is not two-client throughput.
	v["ops_per_s"] = res.medianOverBoots(func(b *bootResult) (rate float64) {
		for c, ss := range b.sampled {
			n := 0
			for _, s := range ss {
				if s.err == nil {
					n++
				}
			}
			rate += ratio(float64(n), b.wall[c].Seconds())
		}
		return rate
	})
	v["cpu_ms_per_op"] = res.medianOverBoots(func(b *bootResult) float64 {
		return ratio(ms(b.cpu), float64(b.requests()))
	})
	v["rss_peak_mb"] = res.medianOverBoots(func(b *bootResult) float64 { return b.rssMB })
	var setups []float64
	for _, b := range res.boots {
		setups = append(setups, b.setupS)
	}
	v["setup_s"] = medianFloat(setups)
	return v, nil
}

// httpLayerValues computes the per-layer metrics the HTTP run yields:
// the per-op-kind table, the tail, and the /api/v1/stats growth over
// the sampled part.
func httpLayerValues(res *httpResult) values {
	v := values{}
	ok, failed, _ := flatten(res.union())
	for _, k := range opKinds {
		d := durations(ok, func(r *request) bool { return r.Kind == k })
		v.setPercentile("server.op."+k+".p50_ms", d, 0.50)
		v.setPercentile("server.op."+k+".p95_ms", d, 0.95)
	}
	opDur := durations(ok, (*request).singleOp)
	v.setPercentile("server.op_p99_ms", opDur, 0.99)
	v.setPercentile("server.page_p99_ms", durations(ok, func(r *request) bool { return r.Kind == "page" }), 0.99)
	over := failed // a failed request misses every latency limit
	var opTotal time.Duration
	for _, s := range ok {
		if s.dur > 100*time.Millisecond {
			over++
		}
		opTotal += s.dur
	}
	n := float64(len(ok) + failed)
	v["server.over_100ms_ratio"] = ratio(float64(over), n)

	// Counter growth summed over the boots; gauges as the last boot
	// left them.
	var d counters
	for _, b := range res.boots {
		d = b.delta.add(d)
	}
	v["server.heap_inuse_mb"] = float64(d.heapInuseBytes) / (1 << 20)
	// Only ops can miss the execution cache (a window read pages a pinned
	// relation), so misses are counted per single-op POST; everything
	// else "per op" below is per sampled request of any kind, like
	// cpu_ms_per_op.
	ops := 0
	for _, s := range res.union() {
		for i := range s {
			if s[i].req.singleOp() {
				ops++
			}
		}
	}
	v["etable.cache_misses_per_op"] = ratio(float64(d.cacheMisses), float64(ops))
	v["etable.cache_hit_ratio"] = ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses))
	v["etable.plan_cache_hit_ratio"] = ratio(float64(d.planHits), float64(d.planHits+d.planMisses))
	v["etable.feedback_replans"] = float64(d.replans)
	v["etable.pinned_relations"] = float64(d.pinned)
	v["etable.cache_resident_mb"] = float64(d.cacheResidentB) / (1 << 20)
	v["pager.faults_per_op"] = ratio(float64(d.pagerFaults), n)
	v["pager.evictions_per_op"] = ratio(float64(d.pagerEvictions), n)
	v["pager.fault_ms_per_op"] = ratio(d.pagerFaultMs, n)
	v["pager.resident_sections"] = float64(d.pagerResident)
	v["pager.fault_share"] = ratio(d.pagerFaultMs, ms(opTotal))
	v["spill.spills_per_op"] = ratio(float64(d.spills), n)
	v["spill.run_kb_per_op"] = ratio(float64(d.spillBytes)/1024, n)
	v["spill.merge_passes"] = float64(d.spillMergePasses)
	v["spill.faults_per_op"] = ratio(float64(d.spillFaults), n)
	v["registry.load_ms"] = d.loadMs
	return v
}

// traceInputs is what the traced pass and the corpus hand to
// traceLayerValues.
type traceInputs struct {
	tr       *tracer
	lc       layerCounts
	srvStats counters // the in-process server's /api/v1/stats after the pass
	loadMs   float64
	lazyMs   float64
	meta     corpusMeta
}

// traceLayerValues computes the per-layer metrics of the traced pass.
func traceLayerValues(in traceInputs) values {
	tr, lc := in.tr, in.lc
	v := values{}
	// Exact counts: one client, so they repeat between runs of a seed.
	v["etable.cache_misses"] = float64(in.srvStats.cacheMisses)
	v["server.resp_bytes_per_op"] = ratio(float64(lc.opBytes), float64(lc.singleOps))
	v["server.resp_bytes_per_page"] = ratio(float64(lc.pageBytes), float64(lc.pages))
	v["graphrel.matched_rows_per_op"] = ratio(float64(lc.matchedRows), float64(lc.missOps))
	v["graphrel.rows_examined_per_row_returned"] = ratio(float64(lc.matchedRows), float64(lc.windowRows))

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	reqs := float64(lc.requests)
	v["http.transport_us_per_op"] = ratio(us(tr.sum[spanRequest]-tr.sum[spanHandler]), reqs)
	v["server.handler_us_per_op"] = ratio(us(tr.sum[spanHandler]), reqs)
	// Routing, body read, stateOf's copy, JSON marshal and the write:
	// what the handler spends outside the layers stepped on the twin.
	v["server.self_us_per_op"] = ratio(us(tr.sum[spanHandler]-tr.sum[spanDecode]-tr.sum[spanApply]-
		tr.sum[spanReplay]-tr.sum[spanWindow]), reqs)
	v["ops.decode_us_per_op"] = tr.usPer(spanDecode)
	v["ops.compile_us_per_op"] = tr.usPer(spanCompile)
	v["session.apply_us_per_op"] = tr.usPer(spanApply)
	v["session.window_us_per_op"] = tr.usPer(spanWindow)
	v["session.replay_us_per_log"] = tr.usPer(spanReplay)
	v["etable.plan_us_per_op"] = tr.usPer(spanPlan)
	v["etable.plan_warm_us_per_op"] = tr.usPer(spanPlanWarm)
	v["etable.match_us_per_op"] = tr.usPer(spanMatch)
	v["etable.prepare_us_per_op"] = tr.usPer(spanPrepare)
	v["etable.sort_us_per_op"] = tr.usPer(spanSort)
	v["etable.window_us_per_page"] = tr.usPer(sumPageWindow)
	v["graphrel.match_ns_per_row"] = ratio(float64(tr.sum[spanMatch].Nanoseconds()), float64(lc.matchedRows))
	v["expr.compile_us_per_cond"] = tr.usPer(spanExpr)
	// The honesty check: how much of what the session layer spent on
	// cache-miss ops the etable layer's public functions do not explain.
	v["etable.unattributed_ratio"] = 1 - ratio(float64(tr.sum[sumMissLayers]), float64(tr.sum[sumMissSession]))
	v.setPercentile("trace.req_p50_ms", lc.opLatency, 0.50)

	v["snapshot.load_ms"] = in.loadMs
	v["snapshot.lazy_open_ms"] = in.lazyMs
	v["snapshot.file_mb"] = float64(in.meta.FileBytes) / (1 << 20)
	v["snapshot.bytes_per_edge"] = ratio(float64(in.meta.FileBytes), float64(in.meta.Edges))
	v["snapshot.save_s"] = in.meta.SaveS
	v["dataset.generate_s"] = in.meta.GenerateS
	v["translate.translate_s"] = in.meta.TranslateS
	return v
}
