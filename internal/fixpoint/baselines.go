package fixpoint

import (
	"sort"
	"sync/atomic"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/types"
)

// This file implements the Section 8.2 iterative-SQL baselines: recursive
// queries simulated as a driver loop of ordinary (non-recursive) SQL
// statements over Spark, which is what users must write when the engine has
// no fixpoint operator.
//
//   - DistributedSQLSN simulates Semi-Naive evaluation in SQL: the delta
//     still drives each step, but every iteration is an independent job —
//     no cached build sides, no SetRDD, no stage combination — so the
//     scheduling/shuffling/caching optimizations the paper credits for
//     RaSQL's speedup are all missed.
//   - DistributedSQLNaive additionally loses delta evaluation: every
//     iteration re-joins the entire accumulated relation and re-aggregates
//     it from scratch (the paper's Spark-SQL-Naive).

// DistributedSQLSN runs the clique as a per-iteration SQL job loop with
// semi-naive deltas (the paper's Spark-SQL-SN baseline).
func DistributedSQLSN(clique *analyze.Clique, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions) (*Result, error) {
	opt.StageCombination = false
	opt.RebuildJoinState = true
	opt.DisableDecomposition = true
	return Distributed(clique, ctx, c, opt)
}

// DistributedSQLNaive runs the clique as a per-iteration SQL job loop that
// recomputes the full relation every iteration (the paper's
// Spark-SQL-Naive baseline).
func DistributedSQLNaive(clique *analyze.Clique, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions) (*Result, error) {
	opt.DisableDecomposition = true
	base, err := buildBase(clique, nil, ctx, c, opt)
	if err != nil {
		return nil, err
	}
	v := base.plan.View
	x := newExecution(base, base.takeWorkspace(), c, opt, nil)
	// naive[p] holds the current full relation partition; each iteration
	// builds a fresh copy (immutable SQL results).
	x.naive = make([][]types.Row, c.Partitions())
	x.mode = "sql-naive"
	// Every iteration is a fresh job over the whole relation. The base branch
	// of the UNION is evaluated once (buildBase) and re-shuffled every round,
	// so iteration 0, over the empty relation, derives the base case as the
	// semi-naive runners' seed does. Naive SQL has no delta: the loop stops
	// when a job's result equals the previous one, and the frontier a tracer
	// sees is the relation's growth, so the curve compares with semi-naive
	// runs.
	var changed atomic.Bool
	pass := func(iter int) (int, error) {
		if iter > 0 {
			// A fresh job: rebuild join state every iteration.
			if x.kernels, err = makeKernels(base.plan, ctx, c, opt); err != nil {
				return 0, err
			}
		}
		changed.Store(false)
		grown := x.traced(iter, func() {
			sh := c.NewShuffle(x.parts)
			sh.Add(x.seed, -1) // the base branch of the UNION, re-scanned
			x.stage("sqlnaive.map", x.ws.tasks, func(x *execution, p, w int) {
				if len(x.naive[p]) > 0 {
					// The whole accumulated relation feeds the join.
					sh.Add(x.ws.run(c, x.kernels, deltaBatch{Rows: x.naive[p]}, p, w), w)
				}
			}, false)
			next := make([][]types.Row, x.parts)
			x.stage("sqlnaive.reduce", x.ws.tasks, func(x *execution, p, w int) {
				rows := sh.FetchTarget(p, w)
				// Shuffle bucket order varies with task placement across
				// iterations; floating-point sums must accumulate in a
				// deterministic order or the convergence test (exact state
				// equality, as a real SQL loop would use) never fires. Sort
				// before aggregating.
				sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
				next[p] = aggregateFull(v, rows)
				// Both sides are sets, so set equality is state equality.
				if !(&relation.Relation{Rows: x.naive[p]}).EqualAsSet(&relation.Relation{Rows: next[p]}) {
					changed.Store(true)
				}
				x.front.addNews(max(len(next[p])-len(x.naive[p]), 0))
			}, false)
			x.naive = next
		})
		if changed.Load() {
			// Improved groups change the relation without growing it.
			return max(grown, 1), nil
		}
		return 0, nil
	}
	seeded, err := pass(0)
	if err != nil {
		return nil, err
	}
	return x.finish(x.iterate(seeded, x.total, pass))
}

// aggregateFull applies the view's γ (group aggregate or set dedup) to a
// complete derivation multiset the caller owns.
func aggregateFull(v *analyze.RecView, rows []types.Row) []types.Row {
	if !v.IsAgg() {
		return relation.DedupRows(rows)
	}
	var c types.Combiner
	return c.Combine(rows, v.GroupIdx, v.AggIdx, v.Agg)
}
