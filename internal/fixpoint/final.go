package fixpoint

import (
	"fmt"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/types"
)

// The final stage. In the paper the fixpoint operator returns a partitioned
// RDD and the final SELECT is an ordinary Spark plan over it. Here a final
// SELECT whose one source is the recursive view, with no UNION, DISTINCT,
// ORDER BY or LIMIT, runs the same way: one task per partition, on the
// partition's owner, filters the partition's state and either projects it
// or folds it into partial aggregates, and the driver fetches only those
// outputs, in partition order. Any other final query, and sum and avg
// (merging partial float sums would reassociate the additions), keeps the
// collect plus exec.Query on the driver.

// finalPlan is a final query compiled for the final stage, once per Base.
type finalPlan struct {
	q     *analyze.Query
	where []func(expr.Env) types.Value
	// items project an ungrouped query.
	items []func(expr.Env) types.Value
	// keys compute a grouped query's group columns. A partial row is a
	// group's keys followed by one slot per aggregate call: exec's layout
	// for the environment HAVING and the select items read.
	keys   []func(expr.Env) types.Value
	aggs   []finalAgg
	having func(expr.Env) types.Value
	post   []func(expr.Env) types.Value
	// zero is the partial row of a group no row has reached yet: counts 0,
	// extrema NULL. empty is the one group a global aggregate over no rows
	// still yields.
	zero  types.Row
	empty []types.Row
	// keyIdx are a partial row's key columns. seenIdx are every column of
	// a count(distinct) row: the keys, the call's index and the value.
	keyIdx, seenIdx []int
}

// finalAgg is one aggregate call of a grouped final query.
type finalAgg struct {
	kind types.AggKind
	star bool
	// distinct marks count(distinct c): its values are deduplicated per
	// group on the driver, and its partial slot stays 0 until then.
	distinct bool
	arg      func(expr.Env) types.Value
}

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

// compileFinal compiles q for the final stage, or returns nil when q has
// none or must run on the driver.
func compileFinal(q *analyze.Query) *finalPlan {
	if q == nil || finalIneligible(q) != "" {
		return nil
	}
	f := &finalPlan{q: q, where: compileAll(q.Conjuncts)}
	if !q.Grouped {
		f.items = compileAll(q.Items)
		return f
	}
	f.keys, f.post = compileAll(q.GroupExprs), compileAll(q.PostItems)
	if q.Having != nil {
		f.having = compileExpr(q.Having)
	}
	g := len(f.keys)
	f.zero = make(types.Row, g+len(q.AggCalls))
	f.aggs = make([]finalAgg, len(q.AggCalls))
	for i, a := range q.AggCalls {
		f.aggs[i] = finalAgg{kind: a.Kind, star: a.Star, distinct: a.Distinct && a.Kind == types.AggCount}
		if !a.Star {
			f.aggs[i].arg = compileExpr(a.Arg)
		}
		if a.Kind == types.AggCount {
			f.zero[g+i] = types.Int(0)
		}
	}
	if g == 0 {
		f.empty = []types.Row{f.zero}
	}
	f.keyIdx, f.seenIdx = columns(g), columns(g+2)
	return f
}

func compileAll(es []expr.Expr) []func(expr.Env) types.Value {
	fns := make([]func(expr.Env) types.Value, len(es))
	for i, e := range es {
		fns[i] = compileExpr(e)
	}
	return fns
}

func columns(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
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
	// groups holds a grouped query's partial rows, and seen its
	// count(distinct) rows.
	groups, seen types.Combiner
	// probe and seenProbe are the rows looked up in groups and seen.
	probe, seenProbe types.Row
}

func (sc *finalScratch) reset(f *finalPlan) {
	sc.arena.Reset()
	sc.out = sc.out[:0]
	sc.groups.Reset(f.keyIdx, -1, types.AggNone)
	sc.seen.Reset(f.seenIdx, -1, types.AggNone)
	if sc.env == nil {
		sc.env = make(expr.Env, 1)
	}
	if f.q.Grouped {
		sc.probe = sc.arena.Clone(f.zero)
		sc.seenProbe = sc.arena.Alloc(len(f.keys) + 2)
	}
}

// finalMerge is the driver's memory for merging partial aggregates, reused
// by the workspace's next execution.
type finalMerge struct {
	rows         []types.Row
	slab         types.RowSlab
	groups, seen types.Combiner
	env          expr.Env
}

// finalStage runs the final query where the view lives, on the workspace's
// kept tasks, and returns its result.
func (x *execution) finalStage() *relation.Relation {
	x.stage("fixpoint.final", x.ws.tasks, (*execution).finalPart, false)
	return x.mergeFinal()
}

// finalPart is partition p's final-stage task on worker w: WHERE over the
// partition's state, then the projection or the partial aggregates, into
// the partition's final scratch. The fault point after the work models an
// executor lost before its output is fetched; the retry starts from a reset
// scratch.
func (x *execution) finalPart(p, w int) {
	f, sc := x.final, &x.ws.scratch[p].final
	sc.reset(f)
	env := sc.env
	g := len(f.keys)
	var grp types.Row // a global aggregate's one group, once it is open
rows:
	for _, r := range x.c.Fetch(x.rows(p), x.c.DefaultOwner(p), w) {
		env[0] = r
		for _, c := range f.where {
			if !c(env).Truthy() {
				continue rows
			}
		}
		if !f.q.Grouped {
			out := sc.arena.Alloc(len(f.items))
			for i, it := range f.items {
				out[i] = it(env)
			}
			sc.out = append(sc.out, out)
			continue
		}
		if g > 0 || grp == nil {
			for i, k := range f.keys {
				sc.probe[i] = k(env)
			}
			grp, _ = sc.groups.Group(sc.probe, &sc.arena)
		}
		for i, a := range f.aggs {
			slot := &grp[g+i]
			if a.star {
				slot.I++
				continue
			}
			switch v := a.arg(env); {
			case v.IsNull():
			case a.distinct:
				d := sc.seenProbe
				copy(d, sc.probe[:g])
				d[g], d[g+1] = types.Int(int64(i)), v
				sc.seen.Group(d, &sc.arena)
			case a.kind == types.AggCount:
				slot.I++
			case a.kind.Improves(v, *slot):
				*slot = v
			}
		}
	}
	x.c.ChaosPostMerge(w)
}

// mergeFinal fetches every partition's final-stage output to the driver, in
// partition order, and assembles the result: the projected rows in that
// order, or the partial rows merged group by group in first-appearance
// order, then HAVING and the select items over each group. Either order is
// the one exec.Query gives over the collected view.
func (x *execution) mergeFinal() *relation.Relation {
	f, c, scratch := x.final, x.c, x.ws.scratch
	out := relation.New("", f.q.Schema)
	if !f.q.Grouped {
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
	m.groups.Reset(f.keyIdx, -1, types.AggNone)
	m.seen.Reset(f.seenIdx, -1, types.AggNone)
	g := len(f.keys)
	for p := range scratch {
		start := len(m.rows)
		m.rows = c.FetchInto(m.rows, &m.slab, scratch[p].final.groups.Groups(), c.DefaultOwner(p), -1)
		for _, r := range m.rows[start:] {
			if grp, fresh := m.groups.Group(r, nil); !fresh {
				f.mergePartial(grp[g:], r[g:])
			}
		}
	}
	// Every distinct row's group opened on its partition, so it is merged.
	for p := range scratch {
		start := len(m.rows)
		m.rows = c.FetchInto(m.rows, &m.slab, scratch[p].final.seen.Groups(), c.DefaultOwner(p), -1)
		for _, r := range m.rows[start:] {
			if _, fresh := m.seen.Group(r, nil); fresh {
				grp, _ := m.groups.Group(r, nil)
				grp[g+int(r[g].I)].I++
			}
		}
	}
	groups := m.groups.Groups()
	if len(groups) == 0 {
		groups = f.empty
	}
	if m.env == nil {
		m.env = make(expr.Env, 1)
	}
	width := len(f.post)
	vals := make([]types.Value, width*len(groups))
	out.Rows = make([]types.Row, 0, len(groups))
	for _, grp := range groups {
		m.env[0] = grp
		if f.having != nil && !f.having(m.env).Truthy() {
			continue
		}
		row := vals[:width:width]
		vals = vals[width:]
		for i, e := range f.post {
			row[i] = e(m.env)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// mergePartial folds the aggregate slots of a later partition's partial row
// into dst's: counts add, and an extremum replaces dst's only when it
// improves on it (a NULL never does; anything else improves on a NULL), so
// the first of equal values stays, as in exec.
func (f *finalPlan) mergePartial(dst, src types.Row) {
	for i, a := range f.aggs {
		v := src[i]
		switch {
		case a.kind == types.AggCount:
			dst[i].I += v.I
		case a.kind.Improves(v, dst[i]):
			dst[i] = v
		}
	}
}
