package main

import (
	"fmt"

	"github.com/rasql/rasql-go/internal/relation"
)

// layered is everything the traced pass learnt about one workload.
type layered struct {
	w       workload
	shares  map[byte]float64 // class → share of the workload's requests
	classes map[byte]*classTrace
	kernels map[string]float64
	counts  *counted
	mem     memDelta
	refMS   []float64 // the rounds' host reference medians
	p50s    []float64 // the rounds' latency medians, at reference speed
	rawP50s []float64 // and as measured
	p90MS   float64   // and the 90th percentile of all their requests
	peakMB  float64   // the child's resident-set high-water mark
}

// classShares counts how often each class occurs in a client's round.
func classShares(w workload) map[byte]float64 {
	shares := map[byte]float64{}
	for i := 0; i < w.perRound; i++ {
		shares[w.at(0, 0, i).class] += 1 / float64(w.perRound)
	}
	return shares
}

// traceWorkload runs the traced pass for one workload: every statement class
// layer by layer, then the kernels over the workload's rows.
func (b *bench) traceWorkload(p *inProcess, rec *recorder, l *loopback, cl *client, w workload) (*layered, error) {
	rec.workload = w.name
	ly := &layered{w: w, shares: classShares(w), classes: map[byte]*classTrace{}}
	var result *relation.Relation
	for i := 0; i < w.perRound && len(ly.classes) < len(ly.shares); i++ {
		class := w.at(0, 0, i).class
		if ly.classes[class] != nil {
			continue
		}
		// Class B needs a literal it has not used; a new round gives one.
		round := inProcessRound + 2
		nextSQL := func() string { round++; return w.at(0, round, i).sql }
		ct, err := p.traceClass(rec, l, cl, class, nextSQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		ly.classes[class] = ct
		if ct.result != nil {
			result = ct.result
		}
	}
	base := tableNamed(b.tables, w.table)
	if result == nil {
		result = base.rel
	}
	var err error
	ly.kernels, err = kernels(base.rel, result, b.csvPath(base.name))
	return ly, err
}

// wavg averages a per-class quantity over the workload's request mix.
func (ly *layered) wavg(f func(*classTrace) float64) float64 {
	var sum float64
	for class, share := range ly.shares {
		sum += share * f(ly.classes[class])
	}
	return sum
}

// span averages a span's median time, in nanoseconds, over the request mix.
func (ly *layered) span(name string) float64 {
	return ly.wavg(func(ct *classTrace) float64 { return ct.ns[name] })
}

// onPath is the class's span times without the calls its requests do not
// make: only class B, which misses the plan cache every time, compiles and
// inserts a plan.
func onPath(ct *classTrace) map[string]float64 {
	times := map[string]float64{}
	for name, ns := range ct.ns {
		switch name {
		case "engine.prepare", "sql.parse", "sql.analyze", "sql.optimize", "server.plan_cache_put":
			if ct.class != classB {
				continue
			}
		}
		times[name] = ns
	}
	return times
}

// self averages a span's self time over the request mix.
func (ly *layered) self(name string) float64 {
	return ly.wavg(func(ct *classTrace) float64 { return selfTimes(onPath(ct), spanParents)[name] })
}

// counts averages a per-request count of the counting pass over its requests.
func (ly *layered) count(f func(*classCounts) int64) float64 {
	var sum int64
	var n int
	for _, cc := range ly.counts.perClass {
		sum += f(cc)
		n += cc.requests
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics lists every per-layer metric, in the order the layers are crossed.
// Times are medians of traceReps repetitions; for short-mix they are averaged
// over its classes by their share of the requests.
func (ly *layered) metrics() []metric {
	const us, ms = 1e3, 1e6
	k := ly.kernels
	runNS := ly.span("fixpoint.distributed")
	localNS := ly.wavg(func(ct *classTrace) float64 { return ct.localNS })
	finalNS := ly.span("sql.exec_final")
	handlerSelfNS := ly.self("server.handler")
	iterations := ly.count(func(c *classCounts) int64 { return c.iterations })
	rowsOut := ly.wavg(func(ct *classTrace) float64 { return float64(ct.rowsOut) })
	if rowsOut < 1 {
		rowsOut = 1
	}
	lookups := float64(ly.counts.cache.hits + ly.counts.cache.misses)
	deltaRows := ly.wavg(func(ct *classTrace) float64 { return float64(ct.deltaRows) })
	// Only class B inserts a plan, after its miss.
	var putNS float64
	if b := ly.classes[classB]; b != nil {
		putNS = ly.shares[classB] * b.ns["server.plan_cache_put"]
	}
	return []metric{
		{"server.http_ms", "ms", (ly.span("request") - ly.span("server.handler")) / ms},
		{"server.handler_self_ms", "ms", handlerSelfNS / ms},
		{"server.encode_ns_per_row", "ns/row", handlerSelfNS / rowsOut},
		{"server.normalize_us", "us", ly.span("server.normalize") / us},
		{"server.plan_cache_get_us", "us", ly.span("server.plan_cache_get") / us},
		{"server.plan_cache_put_us", "us", putNS / us},
		{"server.plan_cache_hit_ratio", "ratio", ratio(float64(ly.counts.cache.hits), lookups)},
		{"server.plan_cache_evictions", "count", float64(ly.counts.cache.evictions)},
		{"server.response_bytes", "B", ly.count(func(c *classCounts) int64 { return int64(c.responseBytes) })},

		{"sql.parse_us", "us", ly.span("sql.parse") / us},
		{"sql.analyze_us", "us", ly.span("sql.analyze") / us},
		{"sql.optimize_us", "us", ly.span("sql.optimize") / us},
		{"engine.prepare_us", "us", ly.span("engine.prepare") / us},
		{"sql.exec_final_ms", "ms", finalNS / ms},
		{"sql.exec_ns_per_row_scanned", "ns/row", ratio(finalNS, ly.wavg(func(ct *classTrace) float64 { return float64(ct.rowsScanned) }))},

		{"engine.exec_self_ms", "ms", ly.self("engine.exec_prepared") / ms},
		{"fixpoint.plan_us", "us", ly.span("fixpoint.plan") / us},
		{"fixpoint.run_ms", "ms", runNS / ms},
		{"fixpoint.iterations", "count", iterations},
		{"fixpoint.delta_rows", "count", deltaRows},
		{"fixpoint.result_rows", "count", ly.wavg(func(ct *classTrace) float64 { return float64(ct.resultRows) })},
		{"fixpoint.ms_per_iteration", "ms", ratio(runNS/ms, iterations)},
		{"fixpoint.ns_per_delta_row", "ns/row", ratio(runNS, deltaRows)},
		{"fixpoint.local_ms", "ms", localNS / ms},
		{"fixpoint.speedup_vs_local", "ratio", ratio(localNS, runNS)},

		{"cluster.shuffle_bytes", "B", ly.count(func(c *classCounts) int64 { return c.shuffleBytes })},
		{"cluster.shuffle_records", "count", ly.count(func(c *classCounts) int64 { return c.shuffleRecords })},
		{"cluster.sim_ms", "ms", ly.count(func(c *classCounts) int64 { return c.simNS }) / ms},
		{"cluster.barrier_wait_ms", "ms", ly.count(func(c *classCounts) int64 { return c.barrierWaitNS }) / ms},
		{"cluster.runstage_empty_us", "us", k["cluster.runstage_empty_us"]},
		{"cluster.partition_ns_per_row", "ns/row", k["cluster.partition_ns_per_row"]},
		{"cluster.rowtable_build_ns_per_row", "ns/row", k["cluster.rowtable_build_ns_per_row"]},
		{"cluster.rowtable_probe_ns_per_row", "ns/row", k["cluster.rowtable_probe_ns_per_row"]},
		{"cluster.shuffle_add_ns_per_row", "ns/row", k["cluster.shuffle_add_ns_per_row"]},
		{"cluster.shuffle_fetch_ns_per_row", "ns/row", k["cluster.shuffle_fetch_ns_per_row"]},
		{"cluster.aggrdd_merge_new_ns_per_row", "ns/row", k["cluster.aggrdd_merge_new_ns_per_row"]},
		{"cluster.aggrdd_merge_dup_ns_per_row", "ns/row", k["cluster.aggrdd_merge_dup_ns_per_row"]},
		{"cluster.setrdd_merge_new_ns_per_row", "ns/row", k["cluster.setrdd_merge_new_ns_per_row"]},
		{"cluster.setrdd_merge_dup_ns_per_row", "ns/row", k["cluster.setrdd_merge_dup_ns_per_row"]},
		{"cluster.collect_ns_per_row", "ns/row", k["cluster.collect_ns_per_row"]},

		{"types.encode_ns_per_row", "ns/row", k["types.encode_ns_per_row"]},
		{"types.decode_ns_per_row", "ns/row", k["types.decode_ns_per_row"]},
		{"types.key_hash_ns_per_row", "ns/row", k["types.key_hash_ns_per_row"]},
		{"relation.csv_load_ns_per_row", "ns/row", k["relation.csv_load_ns_per_row"]},

		{"runtime.gc_cycles_per_query", "count", ly.mem.gcCycles},
		{"runtime.gc_pause_us_per_query", "us", ly.mem.gcPauseUS},
		{"runtime.heap_live_mb", "MiB", ly.mem.heapLiveMB},
		{"runtime.rss_peak_mb", "MiB", ly.peakMB},

		{"trace.overhead_pct", "%", 100 * (ratio(ly.wavg(func(ct *classTrace) float64 { return ct.spansOnNS }), ly.wavg(func(ct *classTrace) float64 { return ct.spansOffNS })) - 1)},
		{"trace.iterations_overhead_pct", "%", 100 * (ratio(ly.wavg(func(ct *classTrace) float64 { return ct.iterTraceNS }), ly.wavg(func(ct *classTrace) float64 { return ct.spansOffNS })) - 1)},

		{"client.latency_p90_ms", "ms", ly.p90MS},
		{"client.latency_p50_raw_ms", "ms", median(ly.rawP50s)},
		{"host.ref_ms", "ms", median(ly.refMS)},
		{"host.ref_spread_pct", "%", 100 * iqrShare(ly.refMS)},
		{"host.round_spread_pct", "%", 100 * iqrShare(ly.p50s)},
		{"host.round_raw_spread_pct", "%", 100 * iqrShare(ly.rawP50s)},
	}
}
