// Benchmarks regenerating each of the paper's evaluation tables and
// figures at smoke scale. `go test -bench=. -benchmem` runs every
// experiment once per iteration; the full paper-shaped sweeps run via
// `go run ./cmd/rasql-bench -all`.
package rasql_test

import (
	"context"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/bench"
	"github.com/rasql/rasql-go/queries"
)

func benchRunner(b *testing.B) *bench.Runner {
	b.Helper()
	return bench.NewRunner(bench.Config{Quick: true, Seed: 7})
}

func runExperiment(b *testing.B, id string) {
	r := benchRunner(b)
	exps := r.Experiments()
	f, ok := exps[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1StratifiedVsRaSQL regenerates Figure 1: the stratified
// versions of CC and SSSP versus their aggregate-in-recursion forms.
func BenchmarkFig1StratifiedVsRaSQL(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig5StageCombination regenerates Figure 5: stage combination
// on/off for CC, REACH and SSSP on RMAT graphs.
func BenchmarkFig5StageCombination(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6Decomposition regenerates Figure 6: decomposed plans and
// broadcast compression on the TC query.
func BenchmarkFig6Decomposition(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7CodeGen regenerates Figure 7: fused (code-generated) versus
// Volcano execution.
func BenchmarkFig7CodeGen(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8RMATScaling regenerates Figure 8: the five-system comparison
// across RMAT sizes.
func BenchmarkFig8RMATScaling(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9RealGraphs regenerates Figure 9: the systems comparison on
// real-world graph analogs.
func BenchmarkFig9RealGraphs(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10ComplexAnalytics regenerates Figure 10: Delivery,
// Management and MLM versus GraphX and the iterative-SQL baselines.
func BenchmarkFig10ComplexAnalytics(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11JoinChoice regenerates Figure 11 (Appendix D): shuffle-hash
// versus sort-merge joins.
func BenchmarkFig11JoinChoice(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12ScaleOut regenerates Figure 12 (Appendix F): the worker
// scaling sweep on TC and SG.
func BenchmarkFig12ScaleOut(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkTable1RealGraphParams regenerates Table 1's dataset parameters.
func BenchmarkTable1RealGraphParams(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2SyntheticGraphs regenerates Table 2: synthetic graph
// parameters with computed TC/SG result sizes.
func BenchmarkTable2SyntheticGraphs(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3CCBaselines regenerates Table 3 (Appendix F): CC against
// the single-machine GAP/COST baselines.
func BenchmarkTable3CCBaselines(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkAblations runs the DESIGN.md design-choice ablations: SetRDD
// mutability, scheduling policy, build-side caching, semi-naive vs naive.
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablations") }

// BenchmarkPreparedCCRMAT times one warm execution of the cc-rmat statement
// (CC over symmetrized RMAT-2000) on four workers and four partitions, the
// in-process half of the served workload: the base is built and the
// working memory sized before the timer starts. Run it at -cpu 1 (make
// kernels) for a number with less spread than a served run.
func BenchmarkPreparedCCRMAT(b *testing.B) { benchPrepared(b, ccRMATEdges(), queries.CC) }

// BenchmarkPreparedTCGrid is BenchmarkPreparedCCRMAT for the tc-grid
// statement (transitive closure of the 21x21 grid, then count(*)).
func BenchmarkPreparedTCGrid(b *testing.B) { benchPrepared(b, tcGridEdges(), tcGridQuery) }

// BenchmarkPreparedGroupBy is BenchmarkPreparedCCRMAT for a statement that
// does not recurse: TestGroupByPreparedAllocBudget's GROUP BY over
// short-mix's table, 185 groups with every aggregate and a count(distinct),
// all of it exec.Grouping's fold.
func BenchmarkPreparedGroupBy(b *testing.B) { benchPrepared(b, mixEdges(), groupByQuery) }

// BenchmarkPreparedJoin is BenchmarkPreparedCCRMAT for
// TestJoinAllocBudget's point self-join over short-mix's table: one
// cluster.RowTable build of the 2,000 edges and a probe per edge of
// vertex 3.
func BenchmarkPreparedJoin(b *testing.B) { benchPrepared(b, mixEdges(), joinQuery) }

func benchPrepared(b *testing.B, edges *rasql.Relation, query string) {
	eng := rasql.New(rasql.Config{Cluster: rasql.ClusterConfig{Workers: 4, Partitions: 4}})
	eng.MustRegister(edges)
	p, err := eng.Prepare(query)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.ExecPrepared(ctx, p, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = eng.ExecPrepared(ctx, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServedRowsOut times one served request of the rows-out
// statement, SELECT Src, Dst, Cost FROM out_edge over RMAT-2000, through
// server.Handler in process, set up as TestRowsOutServedAllocBudget is: the
// scan, the JSON encoding and the response, without the socket. Run it at
// -cpu 1 (make kernels).
func BenchmarkServedRowsOut(b *testing.B) {
	_, request, serve := rowsOutServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(request())
	}
}

// benchSink keeps the benchmarked results alive.
var benchSink *rasql.Relation
