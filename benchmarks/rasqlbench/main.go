// Command rasqlbench is the repository's benchmark: it drives the real rasqld
// binary over loopback HTTP on four workloads, checks every answer against
// the single-threaded oracle, and reports end-to-end and per-layer metrics.
// See benchmarks/README.md.
//
//	go run ./benchmarks/rasqlbench -seed 1              # every workload, rounds interleaved
//	go run ./benchmarks/rasqlbench -seed 1 -repeat 5    # and how well that repeats
//	bash benchmarks/run.sh --workload cc-rmat --seed 1 --seconds 20 --trace 0
//
// Every entry point goes through the same run: the same warm-up, the same
// number of timed rounds and the same requests per round, so a row means the
// same whichever produced it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "seed the tables and request sequences are generated from")
		workloadF = flag.String("workload", "", "measure only this workload and print, last, one JSON result line")
		seconds   = flag.Int("seconds", nominalSeconds, "how long to measure for: 10 timed rounds per 20 seconds, at least 6")
		traceF    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		rasqld    = flag.String("rasqld", "", "rasqld binary to drive (default: build ./cmd/rasqld)")
		workdir   = flag.String("workdir", "", "directory for generated CSV files and built binaries (default: a temporary one)")
		out       = flag.String("out", "", "file the traced pass writes its spans to (default: in -workdir)")
		repeat    = flag.Int("repeat", 1, "run this many times and report how the results spread")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		os.Exit(failure(fmt.Errorf("unexpected argument %q", flag.Arg(0))))
	}
	dir, cleanup, err := scratchDir(*workdir)
	if err != nil {
		os.Exit(failure(err))
	}
	code := run(options{
		seed: *seed, workload: *workloadF, seconds: *seconds, trace: *traceF != 0,
		rasqld: *rasqld, dir: dir, out: *out, repeat: *repeat,
	})
	cleanup()
	os.Exit(code)
}

type options struct {
	seed     int64
	workload string
	seconds  int
	trace    bool
	rasqld   string
	dir      string // this run's scratch directory, removed at the end
	out      string
	repeat   int
}

// scratchDir makes the run's own directory under parent (or the system's
// temporary directory) and returns how to remove it.
func scratchDir(parent string) (string, func(), error) {
	if parent != "" {
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return "", nil, err
		}
	}
	dir, err := os.MkdirTemp(parent, "rasqlbench-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}

// run is the benchmark's one run: the rounds against the rasqld children, the
// in-process passes, and the report. Without -workload it takes every
// workload, rounds interleaved, and measures both kinds of metric; with it,
// that workload alone and the kind -trace names, and it prints, last, the one
// JSON line of the pipeline's contract. With -repeat it does all of that
// several times and reports how far the runs agree. It exits 2 without a
// result line when the measurement could not be made, and 1 (with a line
// saying correct=false) when a reply was wrong.
func run(o options) int {
	if o.rasqld == "" {
		bin, err := buildRasqld(o.dir)
		if err != nil {
			return failure(err)
		}
		o.rasqld = bin
	}
	b, err := newBench(o.rasqld, o.dir, o.seed)
	if err != nil {
		return failure(err)
	}
	if o.out == "" {
		// Beside the scratch directory, which goes when the run ends.
		o.out = filepath.Join(filepath.Dir(o.dir), "rasqlbench-spans.json")
	}
	ws, layersWanted := b.workloads, true
	if o.workload != "" {
		w, ok := b.workload(o.workload)
		if !ok {
			return failure(fmt.Errorf("unknown workload %q", o.workload))
		}
		ws, layersWanted = []workload{w}, o.trace
	}
	rounds := timedRounds(o.seconds)
	prov := gatherProvenance(b, rounds)
	progress := func(msg string) { fmt.Fprintln(os.Stderr, "rasqlbench:", msg) }
	code := 0
	var runs [][][]metric // run → workload → end-to-end metrics
	var last result
	for k := 0; k < o.repeat; k++ {
		prov.print(os.Stdout)
		all, err := b.measure(ws, rounds, progress)
		if err != nil {
			return failure(err)
		}
		progress("in-process passes")
		mems, layers, err := b.inProcessPass(all, layersWanted, o.out, prov)
		if err != nil {
			return failure(err)
		}
		e2e := make([][]metric, len(all))
		for i, s := range all {
			e2e[i] = s.endToEnd(mems[i])
			printRounds(os.Stdout, s)
			if s.failed > 0 {
				fmt.Fprintf(os.Stderr, "rasqlbench: %s: %d of %d requests failed, first: %s\n", s.w.name, s.failed, s.attempted, s.firstFailure)
				code = 1
			}
		}
		printEndToEnd(os.Stdout, all, e2e)
		if layersWanted {
			printLayers(os.Stdout, layers)
			fmt.Printf("spans written to %s\n", o.out)
		}
		runs = append(runs, e2e)

		if o.workload != "" {
			reported := e2e[0]
			if o.trace {
				reported = layers[0].metrics()
			}
			last = newResult(all[0], reported)
		}
	}
	if o.repeat > 1 {
		prov.print(os.Stdout)
		if !printRepeat(os.Stdout, ws, runs) {
			code = 1
		}
	}
	if o.workload != "" {
		line, err := json.Marshal(last)
		if err != nil {
			return failure(err)
		}
		fmt.Println(string(line))
	}
	return code
}

// failure reports an error that kept the benchmark from measuring.
func failure(err error) int {
	fmt.Fprintln(os.Stderr, "rasqlbench:", err)
	return 2
}

// inProcessPass measures, in this process, each workload's allocations and,
// when asked, its layers: the counting pass, the traced calls and the
// kernels. Spans are written to spansPath when the pass ends.
func (b *bench) inProcessPass(all []*served, layers bool, spansPath string, prov provenance) ([]memDelta, []*layered, error) {
	p, err := newInProcess(b.tableFlags)
	if err != nil {
		return nil, nil, err
	}
	mems := make([]memDelta, len(all))
	for i, s := range all {
		mems[i] = b.memory(p, s)
	}
	if !layers {
		return mems, nil, nil
	}
	rec := &recorder{epoch: time.Now(), ns: map[string][]float64{}}
	l, err := startLoopback(p.handler, rec.epoch)
	if err != nil {
		return nil, nil, err
	}
	defer l.stop()
	cl := newClient(l.base)
	defer cl.close()
	out := make([]*layered, len(all))
	for i, s := range all {
		counts, err := b.countingPass(s.w, &s.tally)
		if err != nil {
			return nil, nil, err
		}
		if out[i], err = b.traceWorkload(p, rec, l, cl, s.w); err != nil {
			return nil, nil, err
		}
		out[i].counts, out[i].mem = counts, mems[i]
		out[i].refMS = s.roundColumn(roundRef)
		out[i].p50s = s.roundColumn(roundP50)
		out[i].rawP50s = s.roundColumn(roundRawP50)
		out[i].p90MS = s.p90MS()
		out[i].peakMB = s.peakMB
	}
	if err := rec.writeSpans(spansPath, prov); err != nil {
		return nil, nil, err
	}
	return mems, out, nil
}

// result is the line the pipeline reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(s *served, metrics []metric) result {
	res := result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return res
}
