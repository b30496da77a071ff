package main

import (
	"fmt"
	"io"
	"slices"
)

// printRounds prints what lies behind one workload's medians: the value of
// every round and of every fresh process, with the sample counts.
func printRounds(w io.Writer, s *served) {
	fmt.Fprintf(w, "%s: %d timed rounds of %d requests (%d clients x %d), %d fresh processes, attempted %d, failed %d\n",
		s.w.name, len(s.rounds), s.w.perRound*s.w.clients, s.w.clients, s.w.perRound, len(s.setupS), s.attempted, s.failed)
	row := func(label, format string, values []float64) {
		fmt.Fprintf(w, "  %-18s", label)
		for _, v := range values {
			fmt.Fprintf(w, " "+format, v)
		}
		fmt.Fprintln(w)
	}
	row("round p50 ms", "%.3f", s.roundColumn(roundP50))
	row("round qps", "%.2f", s.roundColumn(roundQPS))
	row("round cpu ms/query", "%.3f", s.roundColumn(roundCPU))
	row("round rss MiB", "%.1f", s.rssMB)
	row("round raw p50 ms", "%.3f", s.roundColumn(roundRawP50))
	row("round host ref ms", "%.2f", s.roundColumn(roundRef))
	row("set-up raw s", "%.4f", s.setupS)
	row("set-up host ref ms", "%.2f", s.setupMS)
}

// printEndToEnd prints the end-to-end metrics of every workload side by side.
func printEndToEnd(w io.Writer, all []*served, e2e [][]metric) {
	fmt.Fprintf(w, "\nend-to-end metrics (median over timed rounds; set-up: median over fresh processes; times at reference host speed)\n")
	fmt.Fprintf(w, "%-22s %-6s %6s", "metric", "unit", "bound")
	for _, s := range all {
		fmt.Fprintf(w, " %14s", s.w.name)
	}
	fmt.Fprintln(w)
	for i, spec := range endToEndSpec {
		fmt.Fprintf(w, "%-22s %-6s %5.0f%%", spec.name, spec.unit, 100*spec.bound)
		for j := range all {
			fmt.Fprintf(w, " %14.4f", e2e[j][i].value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-22s %-6s %6s", "client.latency_p90_ms", "ms", "")
	for _, s := range all {
		fmt.Fprintf(w, " %14.4f", s.p90MS())
	}
	fmt.Fprintln(w)
	counts := func(label string, f func(*served) int) {
		fmt.Fprintf(w, "%-22s %-6s %6s", label, "count", "")
		for _, s := range all {
			fmt.Fprintf(w, " %14d", f(s))
		}
		fmt.Fprintln(w)
	}
	counts("samples_per_round", func(s *served) int { return s.w.perRound * s.w.clients })
	counts("rounds", func(s *served) int { return len(s.rounds) })
	counts("attempted", func(s *served) int { return s.attempted })
	counts("failed", func(s *served) int { return s.failed })
}

// printLayers prints the per-layer metrics of every workload side by side,
// and then where each workload's request time goes.
func printLayers(w io.Writer, layers []*layered) {
	fmt.Fprintf(w, "\nper-layer metrics (traced pass; median of %d repetitions; short-mix: weighted by class share)\n", traceReps)
	fmt.Fprintf(w, "%-36s %-6s", "metric", "unit")
	cols := make([][]metric, len(layers))
	for i, ly := range layers {
		cols[i] = ly.metrics()
		fmt.Fprintf(w, " %14s", ly.w.name)
	}
	fmt.Fprintln(w)
	for i, m := range cols[0] {
		fmt.Fprintf(w, "%-36s %-6s", m.name, m.unit)
		for j := range cols {
			fmt.Fprintf(w, " %14.4f", cols[j][i].value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nshare of the loopback request (traced pass)\n%-36s %-6s", "", "")
	for _, ly := range layers {
		fmt.Fprintf(w, " %14s", ly.w.name)
	}
	fmt.Fprintln(w)
	share := func(label string, f func(*layered) float64) {
		fmt.Fprintf(w, "%-36s %-6s", label, "%")
		for _, ly := range layers {
			fmt.Fprintf(w, " %14.1f", 100*ratio(f(ly), ly.span("request")))
		}
		fmt.Fprintln(w)
	}
	share("http (request - handler)", func(ly *layered) float64 { return ly.span("request") - ly.span("server.handler") })
	share("server.handler self", func(ly *layered) float64 { return ly.self("server.handler") })
	share("engine.exec_prepared self", func(ly *layered) float64 { return ly.self("engine.exec_prepared") })
	share("fixpoint.distributed", func(ly *layered) float64 { return ly.span("fixpoint.distributed") })
	share("sql.exec_final", func(ly *layered) float64 { return ly.span("sql.exec_final") })
	fmt.Fprintf(w, "%-36s %-6s", "fixpoint / server.handler", "%")
	for _, ly := range layers {
		fmt.Fprintf(w, " %14.1f", 100*ratio(ly.span("fixpoint.distributed"), ly.span("server.handler")))
	}
	fmt.Fprintln(w)
}

// printRepeat prints, for every end-to-end metric and workload, the value of
// each run, their median, (max-min)/median and the spread the pipeline
// computes, the distance between the quartiles as a share of the median. It
// reports whether every such spread stays within the metric's bound, which is
// what the pipeline accepts a benchmark by; like the pipeline it prints the
// spread of setup_s without holding it to the bound.
func printRepeat(w io.Writer, workloads []workload, runs [][][]metric) bool {
	ok := true
	fmt.Fprintf(w, "\nrepeatability over %d runs: values, median, (max-min)/median, (Q3-Q1)/median, bound\n", len(runs))
	for i, spec := range endToEndSpec {
		for j, wl := range workloads {
			values := make([]float64, len(runs))
			for k := range runs {
				values[k] = runs[k][j][i].value
			}
			spread := iqrShare(values)
			verdict := "ok"
			switch {
			case spec.name == "setup_s":
				verdict = "not held"
			case spread > spec.bound:
				verdict = "EXCEEDS"
				ok = false
			}
			fmt.Fprintf(w, "%-20s %-10s", spec.name, wl.name)
			for _, v := range values {
				fmt.Fprintf(w, " %11.4f", v)
			}
			fmt.Fprintf(w, "  median %11.4f  range %5.1f%%  quartiles %5.1f%%  bound %3.0f%%  %s\n",
				median(values), 100*ratio(slices.Max(values)-slices.Min(values), median(values)), 100*spread, 100*spec.bound, verdict)
		}
	}
	return ok
}
