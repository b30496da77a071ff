package fixpoint

import (
	"sort"
	"strings"
	"sync"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/trace"
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
	base, err := buildBase(clique, ctx, c, opt)
	if err != nil {
		return nil, err
	}
	// The base branch of the UNION is re-scanned every iteration; its rows
	// are evaluated once here and re-shuffled every round.
	plan, kernels, seed := base.plan, base.kernels, base.seed
	v := plan.View
	parts := c.Partitions()
	pr := newProjector(plan, parts)

	// state[p] holds the current full relation partition; each iteration
	// builds a fresh copy (immutable SQL results).
	state := make([][]types.Row, parts)
	tr := opt.Tracer
	iter := 0
	for {
		iter++
		c.Metrics.Iterations.Add(1)
		if iter > opt.maxIter() {
			return nil, &ErrNonTermination{Iterations: iter, Rows: rowsTotal(state)}
		}
		if iter > 1 {
			// A fresh job: rebuild join state every iteration.
			if kernels, err = makeKernels(plan, ctx, c, opt); err != nil {
				return nil, err
			}
		}

		var mark shuffleMark
		if tr.Enabled() {
			mark = markShuffle(c)
		}
		is := tr.BeginIteration(iter)
		sh := c.NewShuffle(parts)
		//rasql:allow workeraffinity -- driver-side seed write (producer -1) before any map task starts; the driver shard has exactly one writer
		sh.Add(seed, -1) // the base branch of the UNION, re-scanned

		mapTasks := make([]cluster.Task, parts)
		for i := range mapTasks {
			p := i
			mapTasks[i] = cluster.Task{Part: p, Preferred: c.DefaultOwner(p), Run: func(w int) {
				if len(state[p]) == 0 {
					return
				}
				// The whole accumulated relation feeds the join.
				sh.Add(pr.run(c, kernels, deltaBatch{Rows: state[p]}, p, w), w)
			}}
		}
		c.RunStage("sqlnaive.map", mapTasks)

		next := make([][]types.Row, parts)
		var mu sync.Mutex
		changedAny := false
		redTasks := make([]cluster.Task, parts)
		for i := range redTasks {
			p := i
			redTasks[i] = cluster.Task{Part: p, Preferred: c.DefaultOwner(p), Run: func(w int) {
				rows := sh.FetchTarget(p, w)
				// Shuffle bucket order varies with task placement across
				// iterations; floating-point sums must accumulate in a
				// deterministic order or the convergence test (exact
				// state equality, as a real SQL loop would use) never
				// fires. Sort before aggregating.
				sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
				fresh := aggregateFull(v, rows)
				next[p] = fresh
				if !sameRows(v, state[p], fresh) {
					mu.Lock()
					changedAny = true
					mu.Unlock()
				}
			}}
		}
		c.RunStage("sqlnaive.reduce", redTasks)
		if tr.Enabled() {
			// Naive SQL has no delta; report relation growth against the
			// previous iteration so the curve compares with semi-naive runs.
			grown := rowsTotal(next) - rowsTotal(state)
			if grown < 0 {
				grown = 0
			}
			ev := trace.IterationEvent{
				Mode: "sql-naive", DeltaRows: grown, NewKeys: grown,
				AllRows:        rowsTotal(next),
				ShuffleBytes:   c.Metrics.ShuffleBytes.Load() - mark.bytes,
				ShuffleRecords: c.Metrics.ShuffleRecords.Load() - mark.recs,
				PartRows:       partLens(next),
			}
			is.End(ev)
		}
		state = next
		if !changedAny {
			break
		}
		if opt.MaxRows > 0 && rowsTotal(state) > opt.MaxRows {
			return nil, &ErrNonTermination{Iterations: iter, Rows: rowsTotal(state)}
		}
	}

	out := relation.New(v.Name, v.Schema)
	for p := 0; p < parts; p++ {
		out.Rows = append(out.Rows, c.Fetch(state[p], c.DefaultOwner(p), -1)...)
	}
	return &Result{
		Relations:  map[string]*relation.Relation{strings.ToLower(v.Name): out},
		Iterations: iter,
	}, nil
}

func rowsTotal(state [][]types.Row) int {
	n := 0
	for _, p := range state {
		n += len(p)
	}
	return n
}

func partLens(state [][]types.Row) []int {
	out := make([]int, len(state))
	for p, rows := range state {
		out[p] = len(rows)
	}
	return out
}

// aggregateFull applies the view's γ (group aggregate or set dedup) to a
// complete derivation multiset.
func aggregateFull(v *analyze.RecView, rows []types.Row) []types.Row {
	if !v.IsAgg() {
		seen := make(map[string]struct{}, len(rows))
		out := make([]types.Row, 0, len(rows))
		for _, r := range rows {
			k := types.RowKeyString(r)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, r)
		}
		return out
	}
	idx := make(map[string]int, len(rows))
	out := make([]types.Row, 0, len(rows))
	for _, r := range rows {
		k := types.KeyString(r, v.GroupIdx)
		if i, ok := idx[k]; ok {
			out[i][v.AggIdx] = v.Agg.Combine(out[i][v.AggIdx], r[v.AggIdx])
			continue
		}
		idx[k] = len(out)
		out = append(out, r.Clone())
	}
	return out
}

// sameRows compares two partition states as sets (groups compare with
// their aggregate values).
func sameRows(v *analyze.RecView, a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]struct{}, len(a))
	for _, r := range a {
		set[types.RowKeyString(r)] = struct{}{}
	}
	for _, r := range b {
		if _, ok := set[types.RowKeyString(r)]; !ok {
			return false
		}
	}
	return true
}
