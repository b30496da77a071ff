// Command rasql is the RaSQL command-line shell: load CSV tables, run
// RaSQL queries (recursive CTEs with aggregates in recursion), inspect
// plans and execution metrics.
//
// Usage:
//
//	rasql -table 'edge=edges.csv:Src int,Dst int,Cost double' \
//	      -q 'WITH recursive path (Dst, min() AS Cost) AS ...'
//
//	rasql -table ... -f query.sql
//	rasql -table ...            # interactive: statements end with ';'
//	rasql vet -table ... -f query.sql   # static analysis only
//
// Every script is vetted before execution: the static analyzer's
// diagnostics print to stderr, and error-severity findings (a statically
// refuted PreM assumption computes wrong answers) abort the query unless
// -no-vet downgrades them to warnings.
//
// A script may open with EXPLAIN (plan only, nothing executes) or EXPLAIN
// ANALYZE (execute with tracing, render the plan annotated with actual row
// counts, timings and the per-iteration fixpoint table).
//
// Flags:
//
//	-table name=path:schema   register a CSV table (repeatable)
//	-q sql                    run one script and exit
//	-f file                   run a script file and exit
//	-explain                  print the plan instead of executing
//	-explain-analyze          execute and print the plan with actuals
//	-no-vet                   execute even when vet reports errors
//	-local                    force the single-threaded reference engine
//	-naive                    naive (non-semi-naive) evaluation
//	-workers / -partitions    simulated cluster size
//	-mode m                   fixpoint evaluation mode: bsp (default),
//	                          ssp:k (bounded staleness k) or async; relaxed
//	                          modes apply only to cliques vet certifies
//	                          PreM (or set semantics) and silently fall
//	                          back to bsp otherwise
//	-metrics                  print the execution-counter delta plus the
//	                          per-query stats record (latency, iterations,
//	                          shuffle volume, retries, staleness) per query
//	-metrics-listen addr      serve Prometheus text-format metrics over HTTP
//	                          (e.g. :9090; ":0" picks a free port)
//	-query-log                emit one structured JSON log line per finished
//	                          query on stderr (query ID, latency, counters)
//	-chaos seed=N,rate=P      deterministic fault injection (recovery is
//	                          transparent; results are unchanged — see
//	                          DESIGN.md §9)
//	-trace file.json          export a Chrome trace (Perfetto-loadable)
//	-max-rows n               print at most n result rows (default 50)
//
// The vet subcommand exits 0 when the script is clean (or carries only
// warnings/info) and 1 when any error-severity diagnostic fires.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/cli"
	"github.com/rasql/rasql-go/internal/sql/vet"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		vetMain(os.Args[2:])
		return
	}
	var (
		tables     cli.MultiFlag
		query      = flag.String("q", "", "query to run")
		file       = flag.String("f", "", "script file to run")
		explain    = flag.Bool("explain", false, "print the plan instead of executing")
		analyze    = flag.Bool("explain-analyze", false, "execute and print the plan with actuals")
		noVet      = flag.Bool("no-vet", false, "execute even when vet reports errors")
		local      = flag.Bool("local", false, "force the local reference engine")
		naive      = flag.Bool("naive", false, "naive evaluation (implies -local)")
		workers    = flag.Int("workers", 0, "simulated workers (default GOMAXPROCS)")
		partitions = flag.Int("partitions", 0, "partitions (default = workers)")
		metrics    = flag.Bool("metrics", false, "print the execution-counter delta and per-query stats per query")
		metricsLn  = flag.String("metrics-listen", "", "serve Prometheus metrics over HTTP on this address")
		queryLog   = flag.Bool("query-log", false, "emit one structured JSON log line per finished query on stderr")
		mode       = flag.String("mode", "bsp", "fixpoint evaluation mode: bsp, ssp:k or async")
		chaosSpec  = flag.String("chaos", "", "fault injection: seed=N,rate=P[,attempts=K]")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto)")
		maxRows    = flag.Int("max-rows", 50, "max rows to print")
	)
	flag.Var(&tables, "table", "name=path:schema (repeatable)")
	flag.Parse()

	chaos, err := cli.ParseChaos(*chaosSpec)
	if err != nil {
		fatal(err)
	}
	evalMode, staleness, err := rasql.ParseEvalMode(*mode)
	if err != nil {
		fatal(err)
	}
	cfg := rasql.Config{
		Cluster:    rasql.ClusterConfig{Workers: *workers, Partitions: *partitions, Chaos: chaos},
		ForceLocal: *local,
	}
	cfg.Fixpoint.Naive = *naive
	cfg.Fixpoint.Mode = evalMode
	cfg.Fixpoint.Staleness = staleness
	eng := rasql.New(cfg)
	if err := cli.LoadTables(eng, tables); err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		eng.SetTracer(rasql.NewTracer())
	}
	if *queryLog {
		eng.Observability().SetLogger(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	}
	if *metricsLn != "" {
		addr, err := rasql.ServeMetrics(*metricsLn, eng.Observability().Registry())
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: listening on http://%s/metrics\n", addr)
	}

	run := func(src string) {
		if strings.TrimSpace(src) == "" {
			return
		}
		doExplain, doAnalyze := *explain, *analyze
		// A script may also opt in per statement: EXPLAIN [ANALYZE] <query>.
		if rest, ok := stripPrefixFold(src, "EXPLAIN ANALYZE"); ok {
			src, doAnalyze = rest, true
		} else if rest, ok := stripPrefixFold(src, "EXPLAIN"); ok {
			src, doExplain = rest, true
		}
		switch {
		case doAnalyze:
			out, err := eng.ExplainAnalyze(src)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			fmt.Print(out)
			return
		case doExplain:
			plan, err := eng.Explain(src)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			fmt.Print(plan)
			return
		}
		if rep, err := eng.Vet(src); err == nil && len(rep.Diagnostics) > 0 {
			fmt.Fprint(os.Stderr, rep)
			if rep.HasErrors() && !*noVet {
				fmt.Fprintln(os.Stderr, "error: vet reported errors; rerun with -no-vet to execute anyway")
				return
			}
		}
		before := eng.Metrics()
		res, err := eng.Exec(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		if res != nil {
			fmt.Print(res.Sort().Format(*maxRows))
		}
		if *metrics {
			fmt.Println("--", eng.Metrics().Sub(before))
			if s, ok := eng.Observability().Last(); ok {
				fmt.Println("--", fmtQueryStats(s))
			}
		}
	}

	switch {
	case *query != "":
		run(*query)
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		run(string(b))
	default:
		repl(eng, run)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		werr := eng.Tracer().WriteChrome(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s\n", *traceOut)
	}
}

// stripPrefixFold strips a case-insensitive keyword prefix (followed by
// whitespace) from the start of a script.
func stripPrefixFold(src, prefix string) (string, bool) {
	s := strings.TrimSpace(src)
	if len(s) <= len(prefix) || !strings.EqualFold(s[:len(prefix)], prefix) {
		return src, false
	}
	rest := s[len(prefix):]
	if rest[0] != ' ' && rest[0] != '\t' && rest[0] != '\n' && rest[0] != '\r' {
		return src, false
	}
	return strings.TrimSpace(rest), true
}

// fmtQueryStats renders the per-query stats record printed under -metrics:
// the distributional per-query view alongside the engine-counter delta.
func fmtQueryStats(s rasql.QueryStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %d: wall=%v sim=%v iters=%d shuffle=%dB/%d rows",
		s.ID, time.Duration(s.WallNanos).Round(time.Microsecond),
		time.Duration(s.SimNanos).Round(time.Microsecond),
		s.Iterations, s.ShuffleBytes, s.ShuffleRecords)
	if s.TaskRetries > 0 || s.RowsReplayed > 0 {
		fmt.Fprintf(&b, " retries=%d replayed=%d recovered=%d",
			s.TaskRetries, s.RowsReplayed, s.RecoveredIterations)
	}
	if s.StaleReads > 0 || s.SupersededRows > 0 {
		fmt.Fprintf(&b, " stale=%d superseded=%d", s.StaleReads, s.SupersededRows)
	}
	if s.Mode != "" {
		fmt.Fprintf(&b, " mode=%s", s.Mode)
	}
	if s.FallbackReason != "" {
		fmt.Fprintf(&b, " fallback=%q", s.FallbackReason)
	}
	if s.Err != "" {
		fmt.Fprintf(&b, " err=%q", s.Err)
	}
	return b.String()
}

// vetMain implements `rasql vet`: static analysis only, nothing executes.
func vetMain(args []string) {
	fs := flag.NewFlagSet("rasql vet", flag.ExitOnError)
	var tables cli.MultiFlag
	query := fs.String("q", "", "query to vet")
	file := fs.String("f", "", "script file to vet")
	fs.Var(&tables, "table", "name=path:schema (repeatable)")
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintln(out, "usage: rasql vet [-table name=path:schema ...] (-q query | -f file)")
		fs.PrintDefaults()
		fmt.Fprintln(out, "\ndiagnostic codes:")
		for _, cd := range vet.Codes() {
			fmt.Fprintf(out, "  %s  %s\n", cd.Code, cd.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	src := *query
	if *file != "" {
		b, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		src = string(b)
	}
	if strings.TrimSpace(src) == "" {
		fatal(fmt.Errorf("vet: no query given (-q or -f)"))
	}
	eng := rasql.New(rasql.Config{})
	if err := cli.LoadTables(eng, tables); err != nil {
		fatal(err)
	}
	rep, err := eng.Vet(src)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep)
	if len(rep.Diagnostics) == 0 {
		fmt.Println("vet: no findings")
	}
	if rep.HasErrors() {
		os.Exit(1)
	}
}

func repl(eng *rasql.Engine, run func(string)) {
	fmt.Println("RaSQL shell — terminate statements with ';', \\d lists tables, \\q quits.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("rasql> ")
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case `\q`, "exit", "quit":
			return
		case `\d`:
			for _, n := range eng.Catalog().Names() {
				fmt.Println(" ", n)
			}
			fmt.Print("rasql> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			run(buf.String())
			buf.Reset()
			fmt.Print("rasql> ")
		} else {
			fmt.Print("   ... ")
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rasql:", err)
	os.Exit(1)
}
