// Package fixpoint implements the paper's core contribution: the fixpoint
// operator evaluating recursive cliques with aggregates in recursion.
//
// Two engines are provided. Local is a single-threaded reference
// implementation supporting the full language — mutual recursion,
// non-linear rules, and all four monotonic aggregates with exact
// delta-increment semantics for sum/count. Distributed executes linear
// single-view cliques (every workload the paper benchmarks) on the
// simulated cluster with the paper's Distributed Semi-Naive evaluation and
// its optimizations: SetRDD state, partition-aware scheduling, stage
// combination, decomposed plans with compressed broadcast, and fused
// (code-generated) versus Volcano kernels.
package fixpoint

import (
	"context"
	"fmt"
	"strings"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/trace"
	"github.com/rasql/rasql-go/internal/types"
)

// Options configures a fixpoint evaluation.
type Options struct {
	// MaxIterations bounds the fixpoint loop; 0 means the default (100000).
	MaxIterations int
	// MaxRows aborts when the accumulated state exceeds this many rows;
	// 0 means unlimited. It is the guard that catches the paper's
	// non-terminating stratified SSSP on cyclic graphs.
	MaxRows int
	// Naive disables semi-naive evaluation: every iteration re-derives
	// everything from the full state (the paper's Algorithm 1/2).
	Naive bool
	// Tracer, when non-nil, receives per-iteration fixpoint telemetry
	// (and, through the cluster, stage/task spans). Nil disables tracing
	// at near-zero cost.
	Tracer *trace.Tracer
	// Context, when non-nil, is polled at every iteration boundary; once it
	// is done the evaluation stops between iterations and returns an
	// *ErrCancelled wrapping the context's error. Mid-iteration work always
	// completes, so cancellation never observes a half-merged delta.
	Context context.Context
}

func (o Options) maxIter() int {
	if o.MaxIterations <= 0 {
		return 100000
	}
	return o.MaxIterations
}

// Result holds the computed fixpoint of a clique.
type Result struct {
	// Relations maps lower-cased view names to their fixpoint relations.
	// It is nil when the final stage ran.
	Relations map[string]*relation.Relation
	// Final is the final query's result when the distributed engine ran it
	// as the final stage; nil otherwise.
	Final *relation.Relation
	// Iterations is the number of fixpoint iterations executed.
	Iterations int
	// Mode names the evaluation mode the distributed engine actually ran
	// ("bsp", "ssp(k)", "async"); empty for the local engine.
	Mode string
	// FallbackReason, when non-empty, explains why a requested barrier-
	// relaxed mode was downgraded to BSP (the clique failed PreM
	// certification).
	FallbackReason string
}

// Bind registers the result relations on an execution context so the final
// query can read them.
func (r *Result) Bind(ctx *exec.Context) {
	for name, rel := range r.Relations {
		ctx.SetRecResult(name, rel)
	}
}

// ErrNonTermination reports a fixpoint that hit an iteration or row guard —
// the behaviour the paper describes for stratified SSSP on cyclic graphs.
type ErrNonTermination struct {
	Iterations int
	Rows       int
}

// Error implements error.
func (e *ErrNonTermination) Error() string {
	return fmt.Sprintf("fixpoint: no fixpoint after %d iterations (%d rows accumulated); the query may not terminate on this input", e.Iterations, e.Rows)
}

// ErrCancelled reports a fixpoint stopped at an iteration boundary because
// the caller's context was cancelled or its deadline expired. Cause is the
// context's error, so errors.Is(err, context.DeadlineExceeded) (or
// context.Canceled) sees through it.
type ErrCancelled struct {
	// Iterations counts the iterations that completed before the stop.
	Iterations int
	// Cause is the context error (context.Canceled or DeadlineExceeded).
	Cause error
}

// Error implements error.
func (e *ErrCancelled) Error() string {
	return fmt.Sprintf("fixpoint: cancelled at iteration boundary after %d iterations: %v", e.Iterations, e.Cause)
}

// Unwrap exposes the context error for errors.Is/As.
func (e *ErrCancelled) Unwrap() error { return e.Cause }

// checkCancel polls ctx without blocking and converts a done context into
// the iteration-boundary cancellation error.
func checkCancel(ctx context.Context, iterations int) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return &ErrCancelled{Iterations: iterations, Cause: ctx.Err()}
	default:
		return nil
	}
}

// deltaEntry is one tuple of a view's delta.
type deltaEntry struct {
	// row holds the tuple; for aggregate views the value column holds the
	// group's new total (or extremum).
	row types.Row
	// inc is the increment for additive (sum/count) views.
	inc types.Value
	// isNew marks a group/tuple first derived this iteration.
	isNew bool
}

// localView is the evaluation state of one recursive view.
type localView struct {
	v *analyze.RecView
	// all maps tuple/group keys to current rows.
	all map[string]types.Row
	// order preserves insertion order for deterministic output.
	order []string
	// delta is the frontier produced by the previous iteration.
	delta []deltaEntry
	// oldVals records, for groups updated in the last merge, the value
	// before the merge (nil Value with isNew for fresh groups). It
	// supports the A⁻ (all-minus-delta) source role in non-linear rules.
	oldVals map[string]*types.Value
}

func (lv *localView) key(row types.Row) string {
	if lv.v.IsAgg() {
		return types.KeyString(row, lv.v.GroupIdx)
	}
	return types.RowKeyString(row)
}

// rowsAll returns the current relation rows (A).
func (lv *localView) rowsAll() []types.Row {
	out := make([]types.Row, 0, len(lv.order))
	for _, k := range lv.order {
		out = append(out, lv.all[k])
	}
	return out
}

// rowsOld returns A⁻: the state as it was before the last merge.
func (lv *localView) rowsOld() []types.Row {
	out := make([]types.Row, 0, len(lv.order))
	for _, k := range lv.order {
		old, changed := lv.oldVals[k]
		if !changed {
			out = append(out, lv.all[k])
			continue
		}
		if old == nil {
			continue // tuple/group is new; not in A⁻
		}
		r := lv.all[k].Clone()
		r[lv.v.AggIdx] = *old
		out = append(out, r)
	}
	return out
}

// merge folds emitted contributions into the view state and computes the
// next delta. Emissions carry full contribution values; for additive views
// they are increments.
func (lv *localView) merge(emitted []types.Row) {
	lv.delta = lv.delta[:0]
	lv.oldVals = map[string]*types.Value{}
	v := lv.v
	if !v.IsAgg() {
		for _, r := range emitted {
			k := lv.key(r)
			if _, ok := lv.all[k]; ok {
				continue
			}
			lv.all[k] = r
			lv.order = append(lv.order, k)
			lv.oldVals[k] = nil
			lv.delta = append(lv.delta, deltaEntry{row: r, isNew: true})
		}
		return
	}
	additive := v.Agg.Additive()
	// Collapse emissions per group first so the delta has one entry per
	// changed group.
	changed := map[string]bool{}
	var changedOrder []string
	for _, r := range emitted {
		k := lv.key(r)
		val := r[v.AggIdx]
		cur, ok := lv.all[k]
		if !ok {
			if additive && (val.IsNull() || val.AsFloat() == 0) {
				continue
			}
			lv.all[k] = r.Clone()
			lv.order = append(lv.order, k)
			lv.oldVals[k] = nil
			if !changed[k] {
				changed[k] = true
				changedOrder = append(changedOrder, k)
			}
			continue
		}
		if additive {
			if val.IsNull() || val.AsFloat() == 0 {
				continue
			}
			lv.recordOld(k, cur)
			cur[v.AggIdx] = cur[v.AggIdx].Add(val)
			if !changed[k] {
				changed[k] = true
				changedOrder = append(changedOrder, k)
			}
			continue
		}
		if v.Agg.Improves(val, cur[v.AggIdx]) {
			lv.recordOld(k, cur)
			cur[v.AggIdx] = val
			if !changed[k] {
				changed[k] = true
				changedOrder = append(changedOrder, k)
			}
		}
	}
	for _, k := range changedOrder {
		row := lv.all[k].Clone()
		e := deltaEntry{row: row}
		old, recorded := lv.oldVals[k]
		if recorded && old == nil {
			e.isNew = true
		}
		if additive {
			if e.isNew {
				e.inc = row[v.AggIdx]
			} else {
				e.inc = row[v.AggIdx].Sub(*old)
			}
		}
		lv.delta = append(lv.delta, e)
	}
}

// recordOld saves a group's pre-merge value exactly once per iteration.
func (lv *localView) recordOld(k string, cur types.Row) {
	if _, ok := lv.oldVals[k]; !ok {
		old := cur[lv.v.AggIdx]
		lv.oldVals[k] = &old
	}
}

// Local evaluates the clique with single-threaded semi-naive (or naive)
// fixpoint iteration. It is the reference implementation: exact for mutual
// recursion, non-linear rules and all monotonic aggregates.
func Local(clique *analyze.Clique, ctx *exec.Context, opt Options) (*Result, error) {
	if opt.Naive {
		return localNaive(clique, ctx, opt)
	}
	views := make([]*localView, len(clique.Views))
	for i, v := range clique.Views {
		views[i] = &localView{v: v, all: map[string]types.Row{}, oldVals: map[string]*types.Value{}}
	}
	byName := map[string]*localView{}
	for _, lv := range views {
		byName[strings.ToLower(lv.v.Name)] = lv
	}

	tr := opt.Tracer
	// Base cases seed the deltas (iteration 0 of the telemetry).
	seedSpan := tr.BeginIteration(0)
	for _, lv := range views {
		var emitted []types.Row
		for _, rule := range lv.v.BaseRules {
			rows, err := evalRule(rule, ctx, nil)
			if err != nil {
				return nil, err
			}
			emitted = append(emitted, rows...)
		}
		lv.merge(emitted)
	}
	if tr.Enabled() {
		seedSpan.End(localIterEvent("local", views))
	}

	iter := 0
	for {
		active := false
		for _, lv := range views {
			if len(lv.delta) > 0 {
				active = true
			}
		}
		if !active {
			break
		}
		iter++
		if err := opt.guard(iter, totalRows(views)); err != nil {
			return nil, err
		}

		is := tr.BeginIteration(iter)
		emitted := make([][]types.Row, len(views))
		for vi, lv := range views {
			for _, rule := range lv.v.RecRules {
				rows, err := evalRecRuleLocal(rule, byName, ctx)
				if err != nil {
					return nil, err
				}
				emitted[vi] = append(emitted[vi], rows...)
			}
		}
		for vi, lv := range views {
			lv.merge(emitted[vi])
		}
		if tr.Enabled() {
			is.End(localIterEvent("local", views))
		}
	}

	res := &Result{Relations: map[string]*relation.Relation{}, Iterations: iter}
	for _, lv := range views {
		res.Relations[strings.ToLower(lv.v.Name)] = relation.FromRows(lv.v.Name, lv.v.Schema, lv.rowsAll())
	}
	return res, nil
}

func totalRows(views []*localView) int {
	n := 0
	for _, lv := range views {
		n += len(lv.all)
	}
	return n
}

// evalRecRuleLocal evaluates one recursive rule with the exact semi-naive
// variant split: for k recursive sources the rule expands into k variants
// where variant i reads full state (A) for recursive sources before i, the
// delta for source i, and pre-merge state (A⁻) for sources after i — a
// disjoint partition of the new derivations.
func evalRecRuleLocal(rule *analyze.Rule, byName map[string]*localView, ctx *exec.Context) ([]types.Row, error) {
	var out []types.Row
	for variant := range rule.RecSources {
		rows, err := evalRule(rule, ctx, func(si int) []types.Row {
			lv := byName[strings.ToLower(rule.Sources[si].Rec.Name)]
			switch pos := recPosition(rule, si); {
			case pos == variant:
				return deltaRowsFor(rule, si, lv)
			case pos < variant:
				return lv.rowsAll()
			default:
				return lv.rowsOld()
			}
		})
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// evalRule joins the rule's sources and projects its head. Base sources
// read their relations from ctx; recRows supplies the rows of recursive
// source si (nil for a base rule, which has none).
func evalRule(rule *analyze.Rule, ctx *exec.Context, recRows func(si int) []types.Row) ([]types.Row, error) {
	n := len(rule.Sources)
	rows := make([][]types.Row, n)
	for si, s := range rule.Sources {
		if s.Kind == analyze.SourceRec {
			rows[si] = recRows(si)
			continue
		}
		rel, err := ctx.SourceRelation(s)
		if err != nil {
			return nil, err
		}
		rows[si] = rel.Rows
	}
	// The fixpoint drivers poll the query's context at iteration
	// boundaries, so a cancelled query stops with ErrCancelled there, not
	// inside a rule's join.
	var out []types.Row
	err := exec.JoinRows(context.Background(), n, rows, rule.Conjuncts, func(env expr.Env) {
		out = append(out, projectHead(rule, env))
	})
	return out, err
}

// recPosition returns the index of source si within the rule's recursive
// sources.
func recPosition(rule *analyze.Rule, si int) int {
	for i, s := range rule.RecSources {
		if s == si {
			return i
		}
	}
	return -1
}

// deltaRowsFor adapts a recursive source's delta to the consuming rule.
// When the consuming rule sums the source's aggregate value (linearly),
// delta rows carry increments; when the consuming head is additive but does
// not aggregate the value, only genuinely new tuples flow (value updates
// derive nothing new); otherwise delta rows carry their totals.
func deltaRowsFor(rule *analyze.Rule, si int, lv *localView) []types.Row {
	src := rule.Sources[si]
	consumerAdditive := rule.View.Agg.Additive()
	if !consumerAdditive {
		out := make([]types.Row, len(lv.delta))
		for i, d := range lv.delta {
			out[i] = d.row
		}
		return out
	}
	if src.Rec.IsAgg() && src.Rec.Agg.Additive() && headAggregatesValue(rule, si) {
		out := make([]types.Row, 0, len(lv.delta))
		for _, d := range lv.delta {
			r := d.row.Clone()
			r[src.Rec.AggIdx] = d.inc
			out = append(out, r)
		}
		return out
	}
	// Additive consumer that does not propagate the value: count each
	// tuple/group once, on first derivation.
	out := make([]types.Row, 0, len(lv.delta))
	for _, d := range lv.delta {
		if d.isNew {
			out = append(out, d.row)
		}
	}
	return out
}

// headAggregatesValue reports whether the rule's aggregate head expression
// reads the recursive source's aggregate column.
func headAggregatesValue(rule *analyze.Rule, si int) bool {
	if rule.View.AggIdx < 0 {
		return false
	}
	found := false
	expr.Walk(rule.Head[rule.View.AggIdx], func(e expr.Expr) bool {
		if c, ok := e.(*expr.Col); ok && c.Input == si && c.Idx == rule.Sources[si].Rec.AggIdx {
			found = true
			return false
		}
		return true
	})
	return found
}

// projectHead evaluates the head projections over one join result,
// normalizing count() contributions.
func projectHead(rule *analyze.Rule, env expr.Env) types.Row {
	v := rule.View
	row := make(types.Row, len(rule.Head))
	for i, h := range rule.Head {
		row[i] = h.Eval(env)
	}
	if v.Agg == types.AggCount {
		row[v.AggIdx] = types.CountContribution(row[v.AggIdx])
	}
	return row
}

// localNaive evaluates the clique with the paper's Algorithm 1/2: every
// iteration re-derives the whole state from the previous state and the
// loop stops when nothing changes.
func localNaive(clique *analyze.Clique, ctx *exec.Context, opt Options) (*Result, error) {
	state := map[string]*relation.Relation{}
	for _, v := range clique.Views {
		state[strings.ToLower(v.Name)] = relation.New(v.Name, v.Schema)
	}
	tr := opt.Tracer
	prevRows := 0
	iter := 0
	for {
		iter++
		if err := checkCancel(opt.Context, iter-1); err != nil {
			return nil, err
		}
		if iter > opt.maxIter() {
			return nil, &ErrNonTermination{Iterations: iter, Rows: naiveRows(state)}
		}
		is := tr.BeginIteration(iter)
		next, changedAny, err := NaiveStep(clique, state, ctx)
		if err != nil {
			return nil, err
		}
		state = next
		if tr.Enabled() {
			// Naive evaluation has no delta; report relation growth so the
			// curve is comparable with the semi-naive runs.
			n := naiveRows(state)
			grown := n - prevRows
			if grown < 0 {
				grown = 0
			}
			prevRows = n
			is.End(trace.IterationEvent{Mode: "local-naive", DeltaRows: grown, NewKeys: grown, AllRows: n})
		}
		if !changedAny {
			break
		}
		if opt.MaxRows > 0 && naiveRows(state) > opt.MaxRows {
			return nil, &ErrNonTermination{Iterations: iter, Rows: naiveRows(state)}
		}
	}
	return &Result{Relations: state, Iterations: iter}, nil
}

// NaiveStep evaluates one naive-fixpoint iteration (the γ(T(·)) of the
// paper's Algorithm 1/2): every rule re-derives from the full given state
// and the per-view aggregate (or set dedup) applies to the complete
// derivation set. It returns the next state and whether anything changed.
// The PreM checker drives both the original and the PreM-checking versions
// of a query through this step function.
func NaiveStep(clique *analyze.Clique, state map[string]*relation.Relation, ctx *exec.Context) (map[string]*relation.Relation, bool, error) {
	next := map[string]*relation.Relation{}
	changedAny := false
	for _, v := range clique.Views {
		var emitted []types.Row
		for _, rule := range append(append([]*analyze.Rule{}, v.BaseRules...), v.RecRules...) {
			rows, err := evalRule(rule, ctx, func(si int) []types.Row {
				return state[strings.ToLower(rule.Sources[si].Rec.Name)].Rows
			})
			if err != nil {
				return nil, false, err
			}
			emitted = append(emitted, rows...)
		}
		nr := naiveAggregate(v, emitted)
		next[strings.ToLower(v.Name)] = nr
		if !nr.EqualAsSet(state[strings.ToLower(v.Name)]) {
			changedAny = true
		}
	}
	return next, changedAny, nil
}

func naiveRows(state map[string]*relation.Relation) int {
	n := 0
	for _, r := range state {
		n += r.Len()
	}
	return n
}

// naiveAggregate applies the view's head aggregate (or set dedup) to a full
// set of derivations — the γ of γ(T(R)) in the naive loop.
func naiveAggregate(v *analyze.RecView, emitted []types.Row) *relation.Relation {
	out := relation.FromRows(v.Name, v.Schema, emitted)
	if !v.IsAgg() {
		return out.Dedup()
	}
	return out.Aggregate(v.GroupIdx, v.AggIdx, v.Agg)
}
