package rasql

import (
	"fmt"
	"strings"
	"time"

	"github.com/rasql/rasql-go/internal/fixpoint"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/trace"
)

// Explain renders the execution plan of a query: the recursive clique, its
// distributed plan (or the local fallback reason), and the final query
// shape. CREATE VIEW statements in the script are committed to the session,
// matching Exec.
func (e *Engine) Explain(src string) (string, error) {
	return e.explain(src, true)
}

func (e *Engine) explain(src string, commit bool) (string, error) {
	var b strings.Builder
	onView := func(cv *ast.CreateView) error {
		fmt.Fprintf(&b, "View %s(%s)\n", cv.Name, strings.Join(cv.Columns, ", "))
		return nil
	}
	// Describe the program that runs: walk optimizes before planning.
	err := e.walk(src, nil, commit, onView, func(prog *analyze.Program, _ bool) error {
		// Where the final query runs: the fixpoint's final stage, or the
		// driver over the collected view.
		finalStage := ""
		if prog.Clique != nil && len(prog.Clique.Views) > 0 {
			finalStage = "Final stage: none, the local engine's view feeds the driver\n"
			plan, perr := fixpoint.PlanDistributed(prog.Clique)
			switch {
			case e.cfg.ForceLocal:
				b.WriteString("Fixpoint: local (forced)\n")
			case perr == nil:
				b.WriteString(plan.Describe())
				finalStage = fixpoint.DescribeFinal(prog.Final)
			default:
				fmt.Fprintf(&b, "Fixpoint: local engine (%v)\n", perr)
			}
			for _, v := range prog.Clique.Views {
				fmt.Fprintf(&b, "  view %s%s: %d base rule(s), %d recursive rule(s)\n",
					v.Name, v.Schema, len(v.BaseRules), len(v.RecRules))
			}
		}
		fmt.Fprintf(&b, "Final: %d source(s), %d conjunct(s), grouped=%v, schema %s\n",
			len(prog.Final.Sources), len(prog.Final.Conjuncts), prog.Final.Grouped, prog.Final.Schema)
		b.WriteString(finalStage)
		return nil
	})
	if err != nil {
		return "", err
	}
	return b.String(), nil
}

// ExplainAnalyze executes the script with a full tracer attached and
// renders the static plan annotated with what actually happened: result
// size, per-phase timings, stage and task summaries, the per-iteration
// fixpoint table (delta rows, all-relation size, new vs improved, shuffle
// volume, partition skew), and the cluster counter delta.
//
// The plan is rendered without committing anything and the script is then
// executed for real — views it creates stay registered, like
// Exec. A full tracer already attached with SetTracer keeps recording (so
// EXPLAIN ANALYZE composes with -trace export); otherwise a throwaway
// per-query tracer captures the run. Either way the counters come from the
// run's own query context, so concurrent queries never bleed into the
// report.
func (e *Engine) ExplainAnalyze(src string) (string, error) {
	plan, err := e.explain(src, false)
	if err != nil {
		return "", err
	}

	tr := e.Tracer()
	if !tr.SpansEnabled() {
		tr = trace.New()
	}
	preEvents, preIters := len(tr.Events()), len(tr.Iterations())
	qc := e.cluster.NewQuery(tr)
	rel, err := e.exec(qc, src, nil)
	qc.Finish()
	if err != nil {
		return "", err
	}
	delta := qc.Metrics.Snapshot()

	var b strings.Builder
	b.WriteString(plan)
	b.WriteString("-- analyze --\n")
	if rel != nil {
		fmt.Fprintf(&b, "Result: %d row(s)\n", rel.Len())
	} else {
		b.WriteString("Result: no query statement\n")
	}

	// Summarize only this run's slice of the (possibly shared) tracer.
	events := tr.Events()[preEvents:]
	writePhaseSummary(&b, events)
	writeStageSummary(&b, events)
	writeIterationTable(&b, tr.Iterations()[preIters:])
	fmt.Fprintf(&b, "Cluster delta: %s\n", delta)
	// Recovery telemetry only appears when fault injection actually fired
	// (fault-free runs keep the analyze output unchanged).
	if delta.TaskRetries > 0 || delta.RecoveredIterations > 0 {
		fmt.Fprintf(&b, "Recovery: %d task retries, %d partition rollbacks, %d rows replayed\n",
			delta.TaskRetries, delta.RecoveredIterations, delta.RowsReplayed)
	}
	return b.String(), nil
}

// writePhaseSummary lists the driver phases (parse, analyze, fixpoint,
// final — everything on the driver track that is not a stage span).
func writePhaseSummary(b *strings.Builder, events []trace.Event) {
	stats := trace.SummarizeSpans(events, func(e trace.Event) bool {
		return e.Tid == trace.TidDriver && !strings.HasPrefix(e.Name, "stage ")
	})
	if len(stats) == 0 {
		return
	}
	b.WriteString("Phases:\n")
	for _, s := range stats {
		fmt.Fprintf(b, "  %-22s ×%-4d %s\n", s.Name, s.Count, fmtNanos(s.TotalNS))
	}
}

// writeStageSummary aggregates the cluster stages (driver track) and their
// tasks (worker tracks) by name.
func writeStageSummary(b *strings.Builder, events []trace.Event) {
	stages := trace.SummarizeSpans(events, func(e trace.Event) bool {
		return e.Tid == trace.TidDriver && strings.HasPrefix(e.Name, "stage ")
	})
	if len(stages) == 0 {
		return
	}
	tasks := trace.SummarizeSpans(events, func(e trace.Event) bool {
		return e.Tid != trace.TidDriver && e.Tid != trace.TidIterations
	})
	taskByName := map[string]trace.SpanStat{}
	for _, t := range tasks {
		taskByName[t.Name] = t
	}
	b.WriteString("Stages:\n")
	for _, s := range stages {
		name := strings.TrimPrefix(s.Name, "stage ")
		t := taskByName[name]
		fmt.Fprintf(b, "  %-22s ×%-4d %s (%d task(s), task time %s)\n",
			name, s.Count, fmtNanos(s.TotalNS), t.Count, fmtNanos(t.TotalNS))
	}
}

// writeIterationTable renders the fixpoint convergence table.
func writeIterationTable(b *strings.Builder, iters []trace.IterationEvent) {
	if len(iters) == 0 {
		return
	}
	fmt.Fprintf(b, "Fixpoint iterations (%s): %d recorded\n", iters[0].Mode, len(iters))
	b.WriteString("  iter     delta       all       new  improved  shuffleB  shuffleRec     stale  superseded  skew  time\n")
	for _, it := range iters {
		skew := "-"
		if len(it.PartRows) > 0 {
			skew = fmt.Sprintf("%.2f", it.Skew())
		}
		// Staleness telemetry only means something without a barrier; BSP
		// rows render the columns as absent.
		stale, superseded := "-", "-"
		if it.Relaxed {
			stale = fmt.Sprintf("%d", it.StaleRows)
			superseded = fmt.Sprintf("%d", it.SupersededRows)
		}
		fmt.Fprintf(b, "  %4d  %8d  %8d  %8d  %8d  %8d  %10d  %8s  %10s  %4s  %s\n",
			it.Iter, it.DeltaRows, it.AllRows, it.NewKeys, it.Improved,
			it.ShuffleBytes, it.ShuffleRecords, stale, superseded, skew, fmtNanos(it.EndNS-it.StartNS))
	}
}

func fmtNanos(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
