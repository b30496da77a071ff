package rasql_test

import (
	"regexp"
	"strings"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/queries"
)

// redactAnalyze strips the nondeterministic parts of an EXPLAIN ANALYZE
// rendering — wall-clock durations and the cluster counter delta (remote
// vs local fetch split depends on task placement) — leaving the tree
// shape, row counts, iteration telemetry and skew, which are all
// deterministic for a fixed cluster size.
func redactAnalyze(out string) string {
	out = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|s)`).ReplaceAllString(out, "T")
	return regexp.MustCompile(`(?m)^Cluster delta: .*$`).ReplaceAllString(out, "Cluster delta: REDACTED")
}

// TestExplainAnalyzeGolden pins the EXPLAIN ANALYZE tree shape for the SSSP
// recursive-aggregate query on a fixed 4×4 cluster: plan, phases, stages,
// and the full per-iteration convergence table. The final SELECT runs as the
// fixpoint's final stage, so the driver has no final phase of its own.
func TestExplainAnalyzeGolden(t *testing.T) {
	eng := rasql.New(rasql.Config{Cluster: rasql.ClusterConfig{Workers: 4, Partitions: 4}})
	eng.MustRegister(weightedEdges())
	out, err := eng.ExplainAnalyze(queries.SSSP)
	if err != nil {
		t.Fatal(err)
	}
	const want = `Fixpoint[path] partitionKey=[0] decomposed=false
  aggregate: min() AS Cost, implicit group by [0]
  rule 0: strategy=co-partition copartBase=edge on [0]
  view path(Dst int, Cost double): 1 base rule(s), 1 recursive rule(s)
Final: 1 source(s), 0 conjunct(s), grouped=false, schema (Dst int, Cost double)
Final stage: fixpoint.final, projected rows
-- analyze --
Result: 5 row(s)
Phases:
  parse                  ×1    T
  analyze                ×1    T
  fixpoint               ×1    T
Stages:
  copart.build           ×1    T (4 task(s), task time T)
  fixpoint.shufflemap    ×5    T (20 task(s), task time T)
  fixpoint.final         ×1    T (4 task(s), task time T)
Fixpoint iterations (dsn-combined): 5 recorded
  iter     delta       all       new  improved  shuffleB  shuffleRec     stale  superseded  skew  time
     0         1         1         1         0        25           2         -           -  4.00  T
     1         2         3         2         0        38           3         -           -  2.67  T
     2         3         5         2         1        39           3         -           -  2.40  T
     3         1         5         0         1        13           1         -           -  2.40  T
     4         0         5         0         0         0           0         -           -  2.40  T
Cluster delta: REDACTED
`
	if got := redactAnalyze(out); got != want {
		t.Errorf("EXPLAIN ANALYZE shape drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// Under chaos the analyze output gains a Recovery line; fault-free runs
// (the golden test above) must not show one.
func TestExplainAnalyzeRecoveryLine(t *testing.T) {
	cfg := rasql.Config{Cluster: rasql.ClusterConfig{Workers: 4, Partitions: 4}}
	cfg.Cluster.Chaos = rasql.ChaosConfig{Schedule: []rasql.ChaosEvent{
		{Stage: "fixpoint.shufflemap", Occurrence: -1, Part: 0, Attempt: 0, Kind: rasql.FaultPostMerge},
	}}
	eng := rasql.New(cfg)
	eng.MustRegister(weightedEdges())
	out, err := eng.ExplainAnalyze(queries.SSSP)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^Recovery: (\d+) task retries, (\d+) partition rollbacks, \d+ rows replayed$`).
		FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no Recovery line under chaos:\n%s", out)
	}
	if m[1] == "0" || m[2] == "0" {
		t.Errorf("Recovery line shows no retries/rollbacks: %q", m[0])
	}
}

// TestExplainAnalyzeRestoresTracer checks that ExplainAnalyze's internal
// tracer does not clobber one the caller attached.
func TestExplainAnalyzeRestoresTracer(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())
	mine := rasql.NewTracer()
	eng.SetTracer(mine)
	if _, err := eng.ExplainAnalyze(queries.SSSP); err != nil {
		t.Fatal(err)
	}
	if eng.Tracer() != mine {
		t.Fatalf("ExplainAnalyze did not restore the attached tracer")
	}
	// A full attached tracer keeps recording, so -trace export still sees
	// the analyzed run.
	if len(mine.Events()) == 0 || len(mine.Iterations()) == 0 {
		t.Error("attached tracer did not record the analyzed run")
	}
}

// TestExplainAnalyzeRelaxedGolden pins the convergence table for the same
// SSSP query under SSP(1): the staleness columns carry numbers instead of
// "-", and the mode label names the bound. The sequential scheduler makes
// the relaxed round telemetry deterministic.
func TestExplainAnalyzeRelaxedGolden(t *testing.T) {
	cfg := rasql.Config{Cluster: rasql.ClusterConfig{Workers: 4, Partitions: 4, SequentialStages: true}}
	cfg.Fixpoint.Mode = rasql.ModeSSP
	cfg.Fixpoint.Staleness = 1
	eng := rasql.New(cfg)
	eng.MustRegister(weightedEdges())
	out, err := eng.ExplainAnalyze(queries.SSSP)
	if err != nil {
		t.Fatal(err)
	}
	const want = `Fixpoint[path] partitionKey=[0] decomposed=false
  aggregate: min() AS Cost, implicit group by [0]
  rule 0: strategy=co-partition copartBase=edge on [0]
  view path(Dst int, Cost double): 1 base rule(s), 1 recursive rule(s)
Final: 1 source(s), 0 conjunct(s), grouped=false, schema (Dst int, Cost double)
Final stage: fixpoint.final, projected rows
-- analyze --
Result: 5 row(s)
Phases:
  parse                  ×1    T
  analyze                ×1    T
  fixpoint               ×1    T
Stages:
  copart.build           ×1    T (4 task(s), task time T)
  fixpoint.relaxed       ×1    T (6 task(s), task time T)
  fixpoint.final         ×1    T (4 task(s), task time T)
Fixpoint iterations (dsn-ssp(1)): 3 recorded
  iter     delta       all       new  improved  shuffleB  shuffleRec     stale  superseded  skew  time
     0         5         4         4         1         0           0         0           0     -  T
     1         2         5         1         1         0           0         0           1     -  T
     2         0         5         0         0         0           0         1           1  2.40  T
Cluster delta: REDACTED
`
	if got := redactAnalyze(out); got != want {
		t.Errorf("EXPLAIN ANALYZE shape drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainShowsOptimizedProgram: EXPLAIN describes the program exec
// runs, after the optimizer pushed the outer filter into the derived
// table, so the final query keeps no conjunct of its own.
func TestExplainShowsOptimizedProgram(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())
	out, err := eng.Explain(`SELECT t.Src FROM (SELECT Src, Dst FROM edge) t WHERE t.Src = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "Final: 1 source(s), 0 conjunct(s)"; !strings.Contains(out, want) {
		t.Errorf("EXPLAIN = %q, want it to contain %q", out, want)
	}
}
