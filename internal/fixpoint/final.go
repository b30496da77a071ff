package fixpoint

import (
	"fmt"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/types"
)

// The final stage. In the paper the fixpoint operator returns a partitioned
// RDD and the final SELECT is an ordinary Spark plan over it. Here a final
// SELECT whose one source is the recursive view, with no UNION, DISTINCT,
// ORDER BY or LIMIT, runs the same way: one task per partition, on the
// partition's owner, filters the partition's state and either projects it
// or folds it into partial aggregates, and the driver fetches only those
// outputs, in partition order. The fold is exec's own GROUP BY, an
// exec.Grouping per partition, merged on the driver by one more. Any other
// final query, and sum and avg (merging partial float sums would
// reassociate the additions), keeps the collect plus exec.Query on the
// driver.

// finalIneligible reports why q cannot run as the final stage, or "" when
// it can.
func finalIneligible(q *analyze.Query) string {
	switch {
	case len(q.Sources) != 1:
		return fmt.Sprintf("reads %d sources", len(q.Sources))
	case q.Sources[0].Kind != analyze.SourceRec:
		return "reads " + q.Sources[0].Binding + ", not the recursive view"
	case len(q.Unions) > 0:
		return "UNION"
	case q.Distinct:
		return "DISTINCT"
	case len(q.OrderBy) > 0:
		return "ORDER BY"
	case q.Limit >= 0:
		return "LIMIT"
	}
	for _, a := range q.AggCalls {
		if a.Kind != types.AggCount && a.Kind != types.AggMin && a.Kind != types.AggMax {
			return a.Kind.String() + "() would merge partial sums"
		}
	}
	return ""
}

// DescribeFinal is EXPLAIN's line for the final query q over a distributed
// plan: the final stage and what it ships, or why the driver collects the
// view and runs q itself.
func DescribeFinal(q *analyze.Query) string {
	switch reason := finalIneligible(q); {
	case reason != "":
		return "Final stage: none, the driver collects the view (" + reason + ")\n"
	case q.Grouped:
		return "Final stage: fixpoint.final, partial aggregates\n"
	default:
		return "Final stage: fixpoint.final, projected rows\n"
	}
}

// compileFinal returns q when it runs as the final stage, or nil when q is
// nil or must run on the driver.
func compileFinal(q *analyze.Query) *analyze.Query {
	if q == nil || finalIneligible(q) != "" {
		return nil
	}
	return q
}

// finalScratch is the memory one partition's final-stage attempt works in.
// Every attempt resets it first, so a retried attempt counts nothing twice,
// and what it holds stays valid until the partition's next attempt: the
// driver fetches it before the workspace is parked.
type finalScratch struct {
	arena types.RowSlab
	env   expr.Env
	// out holds the projected rows of an ungrouped query.
	out []types.Row
	// group folds a grouped query's partial aggregates.
	group exec.Grouping
}

// finalMerge is the driver's memory for merging partial aggregates, reused
// by the workspace's next execution: the fetched partial and distinct rows,
// and the Grouping they merge into.
type finalMerge struct {
	rows  []types.Row
	slab  types.RowSlab
	group exec.Grouping
}

// finalStage runs the final query where the view lives, on the workspace's
// kept tasks, and returns its result.
func (x *execution) finalStage() *relation.Relation {
	x.stage("fixpoint.final", x.ws.tasks, (*execution).finalPart, false)
	return x.mergeFinal()
}

// finalPart is partition p's final-stage task on worker w: WHERE over the
// partition's state, then the projection or the partial aggregates, into
// the partition's final scratch, each evaluated as exec evaluates it. The
// fault point after the work models an executor lost before its output is
// fetched; the retry starts from a reset scratch.
func (x *execution) finalPart(p, w int) {
	q, sc := x.final, &x.ws.scratch[p].final
	sc.arena.Reset()
	sc.out = sc.out[:0]
	if q.Grouped {
		sc.group.Reset(q)
	}
	if sc.env == nil {
		sc.env = make(expr.Env, 1)
	}
	env := sc.env
rows:
	for _, r := range x.c.Fetch(x.rows(p), x.c.DefaultOwner(p), w) {
		env[0] = r
		for _, c := range q.Conjuncts {
			if !c.Eval(env).Truthy() {
				continue rows
			}
		}
		if q.Grouped {
			sc.group.Add(env)
			continue
		}
		out := sc.arena.Alloc(len(q.Items))
		for i, e := range q.Items {
			out[i] = e.Eval(env)
		}
		sc.out = append(sc.out, out)
	}
	x.c.ChaosPostMerge(w)
}

// mergeFinal fetches every partition's final-stage output to the driver, in
// partition order, and assembles the result: the projected rows in that
// order, or every partition's partial rows and then its distinct rows,
// merged into the driver's Grouping, which finishes them. Either order is
// the one exec.Query gives over the collected view.
func (x *execution) mergeFinal() *relation.Relation {
	q, c, scratch := x.final, x.c, x.ws.scratch
	out := relation.New("", q.Schema)
	if !q.Grouped {
		n := 0
		for p := range scratch {
			n += len(scratch[p].final.out)
		}
		out.Rows = make([]types.Row, 0, n)
		for p := range scratch {
			out.Rows = c.FetchInto(out.Rows, nil, scratch[p].final.out, c.DefaultOwner(p), -1)
		}
		return out
	}
	m := &x.ws.merge
	m.rows = m.rows[:0]
	m.slab.Reset()
	for p := range scratch {
		m.rows = c.FetchInto(m.rows, &m.slab, scratch[p].final.group.Groups(), c.DefaultOwner(p), -1)
	}
	partial := len(m.rows)
	for p := range scratch {
		m.rows = c.FetchInto(m.rows, &m.slab, scratch[p].final.group.Distinct(), c.DefaultOwner(p), -1)
	}
	m.group.Reset(q)
	m.group.Merge(m.rows[:partial], m.rows[partial:])
	out.Rows = m.group.Finish()
	return out
}
