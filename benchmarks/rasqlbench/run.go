package main

import (
	"fmt"
	"net/http"
	"time"
)

// bench holds what every mode of the benchmark starts from: the rasqld
// binary, the inputs generated from the seed and written as CSV, and the
// oracle over the same files.
type bench struct {
	rasqld     string
	dir        string // holds <table>.csv
	seed       int64
	tables     []table
	tableFlags []string
	workloads  []workload
	oracle     *oracle
}

func newBench(rasqld, dir string, seed int64) (*bench, error) {
	b := &bench{rasqld: rasqld, dir: dir, seed: seed, tables: buildTables(seed)}
	var err error
	if b.tableFlags, err = writeTables(dir, b.tables); err != nil {
		return nil, err
	}
	if b.workloads, err = workloads(seed, b.tables); err != nil {
		return nil, err
	}
	if b.oracle, err = newOracle(b.tableFlags); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) csvPath(table string) string { return csvPath(b.dir, table) }

func (b *bench) workload(name string) (workload, bool) {
	for _, w := range b.workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tally counts requests sent and requests whose reply was wrong, over every
// phase of a workload, and keeps the first reason.
type tally struct {
	attempted, failed int
	firstFailure      string
}

func (t *tally) add(attempted, failed int, why string) {
	t.attempted += attempted
	t.failed += failed
	if t.firstFailure == "" {
		t.firstFailure = why
	}
}

// served is one workload together with the rasqld child that serves it.
type served struct {
	w       workload
	child   *child
	clients []*client
	want    map[string]answer
	epoch   ddlEpoch
	setupS  []float64     // one per fresh process, as measured
	setupMS []float64     // the host reference before each of them
	rounds  []roundResult // the timed rounds
	rssMB   []float64     // resident set after each timed round
	peakMB  float64       // and its high-water mark after the last
	tally
}

// serve measures set-up time on freshProcesses fresh rasqld processes and
// keeps the last one, checked against the oracle, for the rounds. Set-up
// runs from exec, through loading the four CSV files and opening the
// listener, to the first 200 reply to the workload's first statement.
func (b *bench) serve(w workload) (*served, error) {
	s := &served{w: w}
	first := queryBody(w.at(0, 0, 0).sql, "")
	for i := 0; i < freshProcesses; i++ {
		s.setupMS = append(s.setupMS, hostRef())
		start := time.Now()
		c, err := startChild(b.rasqld, b.tableFlags)
		if err != nil {
			return nil, err
		}
		cl := newClient(c.base)
		status, reply, _, err := cl.do(first)
		elapsed := time.Since(start)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, reply)
		}
		if err != nil {
			cl.close()
			c.kill()
			return nil, fmt.Errorf("%s: first statement: %w", w.name, err)
		}
		s.setupS = append(s.setupS, elapsed.Seconds())
		s.attempted++
		if i < freshProcesses-1 {
			// Only there to be started. rasqld installs its SIGTERM handler
			// just after it prints its address, and a process this young can
			// be told to stop before that, which kills it where it should
			// drain; the drain is required of the children that served.
			cl.close()
			c.kill()
			continue
		}
		s.child = c
		s.clients = []*client{cl}
		for len(s.clients) < w.clients {
			s.clients = append(s.clients, newClient(c.base))
		}
	}
	s.want = b.oracle.checkAll(w, 0, s.clients[0], &s.tally)
	return s, nil
}

// round runs one round of the workload's request count; the untimed round
// warms the child up and only counts towards attempted and failed.
func (s *served) round(round int, timed bool) error {
	res, err := runRound(s.child, s.w, round, s.clients, s.want, &s.epoch)
	if err != nil {
		return fmt.Errorf("%s round %d: %w", s.w.name, round, err)
	}
	s.add(res.attempted, res.failed, res.firstFailure)
	if timed {
		s.rounds = append(s.rounds, res)
		rss, err := s.child.memoryMB("VmRSS")
		if err != nil {
			return err
		}
		s.rssMB = append(s.rssMB, rss)
	}
	return nil
}

// finish checks every statement against the oracle once more, reads the
// child's peak memory and stops it, requiring a clean drain.
func (b *bench) finish(s *served) {
	b.oracle.checkAll(s.w, 1, s.clients[0], &s.tally)
	var err error
	if s.peakMB, err = s.child.memoryMB("VmHWM"); err != nil {
		s.add(0, 1, err.Error())
	}
	for _, cl := range s.clients {
		cl.close()
	}
	if err := s.child.stop(); err != nil {
		s.add(0, 1, err.Error())
	}
	s.child = nil
}

// abandon kills the child after an error that ends the run.
func (s *served) abandon() {
	if s != nil && s.child != nil {
		s.child.kill()
	}
}

// metric is one named number with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// metricSpec fixes an end-to-end metric: its unit, which direction is
// better, and the share of the parent's median by which it may get worse
// before a change counts as a regression. BENCHMARK.json repeats the table.
type metricSpec struct {
	name, unit, better string
	bound              float64
}

var endToEndSpec = []metricSpec{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"allocs_per_query", "count", "lower", 0.02},
	{"alloc_kb_per_query", "KiB", "lower", 0.10},
	{"rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// The per-round quantities.
func roundP50(r roundResult) float64    { return r.p50ms }
func roundRawP50(r roundResult) float64 { return r.rawP50ms }
func roundRef(r roundResult) float64    { return median(r.refMS) }
func roundQPS(r roundResult) float64    { return r.qps }
func roundCPU(r roundResult) float64    { return r.cpuMSPerReq }

// p90MS is the 90th percentile of every timed request's latency, at the
// reference host speed. The rounds are pooled for it: all of them together
// have at least a hundred samples, so ten or more lie beyond it, which one
// round of a slow workload has not.
func (s *served) p90MS() float64 {
	var all, ref []float64
	for _, r := range s.rounds {
		all = append(all, r.latencyMS...)
		ref = append(ref, r.refMS...)
	}
	return percentile(all, 0.90) / hostSpeed(ref)
}

// roundColumn is one quantity over the timed rounds.
func (s *served) roundColumn(f func(roundResult) float64) []float64 {
	v := make([]float64, len(s.rounds))
	for i, r := range s.rounds {
		v[i] = f(r)
	}
	return v
}

// endToEnd reduces a workload's measurements to its end-to-end metrics: each
// per-round quantity, the resident set read after a round among them, is the
// median over the timed rounds, set-up time the median over the fresh
// processes. Times are at the reference host speed.
func (s *served) endToEnd(mem memDelta) []metric {
	values := map[string]float64{
		"latency_p50_ms":     median(s.roundColumn(roundP50)),
		"throughput_qps":     median(s.roundColumn(roundQPS)),
		"cpu_ms_per_query":   median(s.roundColumn(roundCPU)),
		"allocs_per_query":   mem.mallocs,
		"alloc_kb_per_query": mem.allocKB,
		"rss_mb":             median(s.rssMB),
		"setup_s":            median(s.setupS) / hostSpeed(s.setupMS),
	}
	out := make([]metric, len(endToEndSpec))
	for i, spec := range endToEndSpec {
		out[i] = metric{spec.name, spec.unit, values[spec.name]}
	}
	return out
}

// memory measures the workload's allocations in process, checking every
// reply, and folds the requests it sent into the tally.
func (b *bench) memory(p *inProcess, s *served) memDelta {
	want := b.oracle.checkAll(s.w, 0, p, &s.tally)
	warm, measured := memoryRequests(s.w)
	mem := p.measureMemory(s.w, warm, measured, want)
	s.add(mem.requests, mem.failed, mem.firstFailure)
	return mem
}

// The run's shape. Whichever entry point starts it, a run is one untimed
// warm-up round and then timed rounds of each workload's fixed request count;
// the request counts are sized so that the warm-up and ten timed rounds, host
// reference included, take about nominalSeconds on the host this was written
// on.
const (
	nominalSeconds = 20 // run_seconds in BENCHMARK.json
	nominalRounds  = 10
	minRounds      = 6
	freshProcesses = 11
)

// timedRounds is how many timed rounds a run asked to measure for the given
// time has: ten for the nominal twenty seconds, more for longer, never fewer
// than six. It depends on the argument alone, so the number of values
// under every median is the same on every commit and host.
func timedRounds(seconds int) int {
	return max(minRounds, seconds*nominalRounds/nominalSeconds)
}

// measure runs the given workloads, one rasqld child each: set-up on fresh
// processes, the full check against the oracle, one warm-up round, the timed
// rounds, the check again, and a clean stop. A round visits the workloads in
// the order given, so slow drift of the host falls on all of them alike.
func (b *bench) measure(ws []workload, rounds int, progress func(string)) ([]*served, error) {
	var all []*served
	abandon := func() {
		for _, s := range all {
			s.abandon()
		}
	}
	for _, w := range ws {
		progress("set-up " + w.name)
		s, err := b.serve(w)
		if err != nil {
			abandon()
			return nil, err
		}
		all = append(all, s)
	}
	for r := 0; r <= rounds; r++ {
		progress(fmt.Sprintf("round %d of %d", r, rounds))
		for _, s := range all {
			if err := s.round(r, r > 0); err != nil {
				abandon()
				return nil, err
			}
		}
	}
	for _, s := range all {
		b.finish(s)
	}
	return all, nil
}
