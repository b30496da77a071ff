// Command rasql-bench regenerates the tables and figures of the paper's
// evaluation (Section 8 and appendices) on the simulated cluster.
//
// Usage:
//
//	rasql-bench -all                 # every experiment, paper order
//	rasql-bench -run fig8,table3     # selected experiments
//	rasql-bench -all -md > out.md    # markdown output
//	rasql-bench -quick               # small sizes for smoke runs
//	rasql-bench -run fig10 -json BENCH_fixpoint.json  # also write JSON records
//
// Dataset sizes scale down from the paper's 16-node cluster by -scale
// (RMAT vertex counts) and -tree-scale (tree node counts); the defaults
// (1000 / 256) fit a laptop. Absolute times therefore differ from the
// paper; the comparisons within each table are the reproduction target.
//
// Serving performance is measured by benchmarks/ (see its README), which
// drives the real rasqld binary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/rasql/rasql-go/internal/bench"
	"github.com/rasql/rasql-go/internal/cli"
)

func main() {
	var (
		all       = flag.Bool("all", false, "run every experiment")
		run       = flag.String("run", "", "comma-separated experiment ids: "+strings.Join(bench.Order, ","))
		scale     = flag.Int("scale", 1000, "divisor for the paper's RMAT vertex counts")
		treeScale = flag.Int("tree-scale", 256, "divisor for the paper's tree node counts")
		workers   = flag.Int("workers", 0, "simulated workers (default 8)")
		repeat    = flag.Int("repeat", 1, "runs to average per measurement (paper: 5)")
		seed      = flag.Int64("seed", 1, "dataset seed")
		quick     = flag.Bool("quick", false, "tiny sizes for smoke runs")
		md        = flag.Bool("md", false, "markdown output")
		quiet     = flag.Bool("quiet", false, "suppress progress lines")
		jsonOut   = flag.String("json", "", "write per-experiment machine-readable results to this file (default: none)")
		chaosSpec = flag.String("chaos", "", "fault injection for every measurement: seed=N,rate=P[,attempts=K]")
	)
	flag.Parse()

	chaos, err := cli.ParseChaos(*chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rasql-bench:", err)
		os.Exit(2)
	}
	cfg := bench.Config{
		Scale: *scale, TreeScale: *treeScale, Workers: *workers,
		Partitions: *workers, Repeat: *repeat, Seed: *seed, Quick: *quick,
		Chaos: chaos,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	r := bench.NewRunner(cfg)

	var ids []string
	switch {
	case *all:
		ids = bench.Order
	case *run != "":
		ids = strings.Split(*run, ",")
	default:
		fmt.Fprintln(os.Stderr, "rasql-bench: pass -all or -run <ids>; available:", strings.Join(bench.Order, ", "))
		os.Exit(2)
	}

	exps := r.Experiments()
	var records []bench.Record
	for _, id := range ids {
		id = strings.TrimSpace(id)
		f, ok := exps[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "rasql-bench: unknown experiment %q\n", id)
			os.Exit(2)
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		r.TakeTotals() // drop counters attributed to prior experiments
		r.TakeCurves() // likewise for convergence curves
		start := time.Now()
		tbl, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rasql-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		m := r.TakeTotals()
		records = append(records, bench.Record{
			Experiment:          id,
			WallNanos:           int64(wall),
			SimNanos:            m.SimNanos,
			ShuffleBytes:        m.ShuffleBytes,
			ShuffleRecords:      m.ShuffleRecords,
			Allocs:              after.Mallocs - before.Mallocs,
			TaskRetries:         m.TaskRetries,
			RowsReplayed:        m.RowsReplayed,
			RecoveredIterations: m.RecoveredIterations,
			StaleReads:          m.StaleReads,
			SupersededRows:      m.SupersededRows,
			BarrierWaitNanos:    m.BarrierWaitNanos,
			Curves:              r.TakeCurves(),
		})
		if *md {
			fmt.Println(tbl.Markdown())
			if c, ok := bench.Commentary[id]; ok {
				fmt.Println(c)
				fmt.Println()
			}
		} else {
			fmt.Println(tbl.String())
		}
		r.FreeDatasets()
	}

	writeRecords(*jsonOut, records, *quiet)
}

// writeRecords emits the machine-readable per-experiment results.
func writeRecords(jsonOut string, records []bench.Record, quiet bool) {
	if jsonOut == "" {
		return
	}
	buf, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rasql-bench: marshal results: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(jsonOut, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "rasql-bench: write %s: %v\n", jsonOut, err)
		os.Exit(1)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiments)\n", jsonOut, len(records))
	}
}
