package exec

import (
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/types"
)

// Grouping is the engine's one grouped fold: exec's GROUP BY runs it, and so
// does the fixpoint's final stage, once per partition and once on the
// driver to merge what the partitions ship.
//
// Each group is a partial row in a types.Combiner: the group keys, then one
// slot per aggregate call, then a count slot for each avg. A count slot
// counts; a min/max slot holds the first strictly better non-NULL value
// (AggKind.Improves); a sum or avg slot holds Int(0).Add of the first value
// and then Adds the next, NULL while no value has arrived. A DISTINCT call
// first looks (keys, call, value) up in a second Combiner and folds the
// value only when that row is new; count(distinct) leaves its slot at 0 and
// Finish counts the distinct rows instead, so partial rows merge without
// counting a value twice. A min or max folds every value, DISTINCT or not.
//
// The zero value is ready to use, and Reset keeps its memory: the first
// group's row is the Grouping's own and later ones are carved from its
// slab, so a reused Grouping allocates only for more groups than any call
// before it. A Grouping is not safe for concurrent use.
type Grouping struct {
	q                *analyze.Query
	groups, distinct types.Combiner
	arena            types.RowSlab
	// first is the first group's row, a partial row long. probe is the row
	// Add evaluates the keys into, nil once it opened a group, and dprobe
	// the row it looks up in distinct, nil until a DISTINCT call needs it.
	first, probe, dprobe types.Row
	// cols is 0, 1, 2, ...: the key columns of both tables.
	cols []int
	env  expr.Env
}

// Reset forgets the groups of the previous call and folds q's aggregates
// from now on.
func (g *Grouping) Reset(q *analyze.Query) {
	k := len(q.GroupExprs)
	width := k + len(q.AggCalls)
	for _, a := range q.AggCalls {
		if a.Kind == types.AggAvg {
			width++
		}
	}
	if len(g.cols) < k+2 {
		g.cols = make([]int, k+2)
		for i := range g.cols {
			g.cols[i] = i
		}
	}
	if cap(g.first) < width {
		g.first = make(types.Row, width)
	}
	g.q, g.first = q, g.first[:width]
	g.arena.Reset()
	g.groups.Reset(g.cols[:k], -1, types.AggNone)
	g.distinct.Reset(g.cols[:k+2], -1, types.AggNone)
	g.probe, g.dprobe = g.zero(g.first), nil
}

// reserve sizes the distinct table once for a fold of n input rows, when a
// call keeps distinct rows: one such call makes at most n, so the table
// does not grow while the rows fold. The group table grows as groups open,
// since sizing it for n would cost a GROUP BY of few groups more than it
// saves. Call it right after Reset.
func (g *Grouping) reserve(n int) {
	for _, a := range g.q.AggCalls {
		if keepsDistinct(a) {
			g.distinct.Reserve(n)
			return
		}
	}
}

// keepsDistinct reports whether call a folds a value only when its
// distinct row is new. DISTINCT cannot change a min or max.
func keepsDistinct(a analyze.AggCall) bool {
	return a.Distinct && a.Kind != types.AggMin && a.Kind != types.AggMax
}

// zero sets r's slots to those of a group no row has reached: counts 0,
// every other aggregate NULL.
func (g *Grouping) zero(r types.Row) types.Row {
	k := len(g.q.GroupExprs)
	for j := k; j < len(r); j++ {
		r[j] = types.Int(0)
	}
	for i, a := range g.q.AggCalls {
		if a.Kind != types.AggCount {
			r[k+i] = types.Null()
		}
	}
	return r
}

// Add folds one input tuple into its group. It keeps nothing of env.
func (g *Grouping) Add(env expr.Env) {
	q := g.q
	k := len(q.GroupExprs)
	var grp types.Row
	if groups := g.groups.Groups(); k == 0 && len(groups) > 0 {
		grp = groups[0]
	} else {
		if g.probe == nil {
			g.probe = g.zero(g.arena.Alloc(len(g.first)))
		}
		for i, e := range q.GroupExprs {
			g.probe[i] = e.Eval(env)
		}
		var fresh bool
		if grp, fresh = g.groups.Group(g.probe, nil); fresh {
			g.probe = nil // it is the group's row now
		}
	}
	count := k + len(q.AggCalls) // the next avg's count slot
	for i, a := range q.AggCalls {
		slot, n := &grp[k+i], count
		if a.Kind == types.AggAvg {
			count++
		}
		if a.Star { // count(*)
			slot.I++
			continue
		}
		v := a.Arg.Eval(env)
		if v.IsNull() {
			continue
		}
		if keepsDistinct(a) {
			if g.dprobe == nil {
				g.dprobe = g.arena.Alloc(k + 2)
			}
			d := g.dprobe
			copy(d, grp[:k])
			d[k], d[k+1] = types.Int(int64(i)), v
			if _, fresh := g.distinct.Group(d, &g.arena); !fresh || a.Kind == types.AggCount {
				continue
			}
		}
		switch a.Kind {
		case types.AggCount:
			slot.I++
		case types.AggMin, types.AggMax:
			if a.Kind.Improves(v, *slot) {
				*slot = v
			}
		default: // sum, avg
			if slot.IsNull() {
				*slot = types.Int(0)
			}
			*slot = slot.Add(v)
			if a.Kind == types.AggAvg {
				grp[n].I++
			}
		}
	}
}

// Groups returns the partial row of every group in first-appearance
// order, valid until the next Reset: what a final-stage task ships.
func (g *Grouping) Groups() []types.Row { return g.groups.Groups() }

// Distinct returns the (keys, call, value) row of every distinct value,
// valid until the next Reset: what a final-stage task ships beside Groups.
func (g *Grouping) Distinct() []types.Row { return g.distinct.Groups() }

// Merge folds partial and distinct rows that other Groupings over the same
// query gave into g, in order: a group's slots combine with its call's
// AggKind.Combine, so counts add and min/max keep the first strictly
// better value, and a distinct row is kept once. g keeps the rows it is
// given and updates them, so the caller hands over copies. Only count, min
// and max partials merge, the aggregates the final stage ships: Merge
// panics on a sum or avg call, whose slots and avg counts it does not add.
func (g *Grouping) Merge(partial, distinct []types.Row) {
	k := len(g.q.GroupExprs)
	for _, a := range g.q.AggCalls {
		if a.Kind == types.AggSum || a.Kind == types.AggAvg {
			panic("exec: Grouping.Merge of " + a.Kind.String() + "()")
		}
	}
	for _, r := range partial {
		if grp, fresh := g.groups.Group(r, nil); !fresh {
			for i, a := range g.q.AggCalls {
				grp[k+i] = a.Kind.Combine(grp[k+i], r[k+i])
			}
		}
	}
	for _, d := range distinct {
		g.distinct.Group(d, nil)
	}
}

// Finish evaluates HAVING and the select items over every group into rows
// cut from one value slab, and returns them. Each group reads as exec's grouped
// environment: its keys, then one result per aggregate call. A global
// aggregate over no input still yields its one row: count 0, every other
// aggregate NULL. Finish is the Grouping's last call before a Reset.
func (g *Grouping) Finish() []types.Row {
	q := g.q
	k, n := len(q.GroupExprs), len(q.AggCalls)
	if k == 0 && len(g.groups.Groups()) == 0 {
		g.groups.Group(g.probe, nil)
	}
	groups := g.groups.Groups()
	for _, d := range g.distinct.Groups() {
		if i := int(d[k].I); q.AggCalls[i].Kind == types.AggCount {
			groups[g.groups.Lookup(d, g.cols[:k])][k+i].I++
		}
	}
	if g.env == nil {
		g.env = make(expr.Env, 1)
	}
	width := len(q.PostItems)
	vals := make([]types.Value, width*len(groups))
	out := make([]types.Row, 0, len(groups))
	for _, grp := range groups {
		count := k + n
		for i, a := range q.AggCalls {
			if a.Kind != types.AggAvg {
				continue
			}
			if c := grp[count].I; c > 0 {
				grp[k+i] = types.Float(grp[k+i].AsFloat() / float64(c))
			}
			count++
		}
		g.env[0] = grp[:k+n]
		if q.Having != nil && !q.Having.Eval(g.env).Truthy() {
			continue
		}
		row := vals[:width:width]
		vals = vals[width:]
		for i, e := range q.PostItems {
			row[i] = e.Eval(g.env)
		}
		out = append(out, row)
	}
	return out
}
