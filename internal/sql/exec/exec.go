// Package exec evaluates analyzed (non-recursive) queries locally: FROM
// joins with hash-join acceleration, WHERE filtering with predicate
// pushdown, grouping with the full aggregate set, unions, DISTINCT, ORDER
// BY and LIMIT. It materializes named views on demand and resolves
// recursive-view references through a caller-supplied result map, so final
// queries over fixpoint results run here too. It also serves as the
// single-node reference implementation the distributed engine is
// property-tested against.
package exec

import (
	"fmt"
	"sort"
	"strings"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/types"
)

// Context supplies table-independent state for evaluation.
type Context struct {
	// RecResults maps recursive view names (lower-cased) to their
	// computed fixpoint relations.
	RecResults map[string]*relation.Relation
	// viewCache memoizes materialized named views.
	viewCache map[string]*relation.Relation
}

// NewContext creates an empty evaluation context.
func NewContext() *Context {
	return &Context{RecResults: map[string]*relation.Relation{}, viewCache: map[string]*relation.Relation{}}
}

// SetRecResult registers a fixpoint result for a recursive view.
func (c *Context) SetRecResult(name string, rel *relation.Relation) {
	c.RecResults[strings.ToLower(name)] = rel
}

// SourceRelation resolves one FROM source to a concrete relation.
func (c *Context) SourceRelation(s analyze.Source) (*relation.Relation, error) {
	switch s.Kind {
	case analyze.SourceTable:
		return s.Rel, nil
	case analyze.SourceView:
		named := s.ViewName != ""
		key := strings.ToLower(s.ViewName)
		if named {
			if r, ok := c.viewCache[key]; ok {
				return r, nil
			}
		}
		r, err := Query(s.ViewQuery, c)
		if err != nil {
			return nil, fmt.Errorf("materialize view %s: %w", s.Binding, err)
		}
		r.Name = s.Binding
		r.Schema = s.Schema
		if named {
			c.viewCache[key] = r
		}
		return r, nil
	case analyze.SourceRec:
		r, ok := c.RecResults[strings.ToLower(s.Rec.Name)]
		if !ok {
			return nil, fmt.Errorf("exec: recursive view %q has no computed result", s.Rec.Name)
		}
		return r, nil
	default:
		return nil, fmt.Errorf("exec: unknown source kind %d", s.Kind)
	}
}

// Query evaluates an analyzed query to a relation.
func Query(q *analyze.Query, ctx *Context) (*relation.Relation, error) {
	out, err := evalCore(q, ctx)
	if err != nil {
		return nil, err
	}
	for i, u := range q.Unions {
		ur, err := evalCore(u, ctx)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ur.Rows...)
		if !q.All[i] {
			out.Dedup()
		}
	}
	if q.Distinct {
		out.Dedup()
	}
	if len(q.OrderBy) > 0 {
		keys := q.OrderBy
		sort.SliceStable(out.Rows, func(i, j int) bool {
			for _, k := range keys {
				c := out.Rows[i][k.Idx].Compare(out.Rows[j][k.Idx])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if q.Limit >= 0 && len(out.Rows) > q.Limit {
		out.Rows = out.Rows[:q.Limit]
	}
	return out, nil
}

func evalCore(q *analyze.Query, ctx *Context) (*relation.Relation, error) {
	envs, err := JoinSources(q.Sources, q.Conjuncts, ctx)
	if err != nil {
		return nil, err
	}
	out := relation.New("", q.Schema)
	if !q.Grouped {
		for _, env := range envs {
			row := make(types.Row, len(q.Items))
			for i, e := range q.Items {
				row[i] = e.Eval(env)
			}
			out.Append(row)
		}
		return out, nil
	}

	// Grouped evaluation: bucket by group key, accumulate aggregates,
	// then evaluate post-expressions over [groups..., aggs...].
	type group struct {
		keys types.Row
		accs []*aggAcc
	}
	groups := map[string]*group{}
	var order []string
	for _, env := range envs {
		keys := make(types.Row, len(q.GroupExprs))
		for i, g := range q.GroupExprs {
			keys[i] = g.Eval(env)
		}
		k := types.RowKeyString(keys)
		grp, ok := groups[k]
		if !ok {
			grp = &group{keys: keys, accs: make([]*aggAcc, len(q.AggCalls))}
			for i := range q.AggCalls {
				grp.accs[i] = newAggAcc(q.AggCalls[i])
			}
			groups[k] = grp
			order = append(order, k)
		}
		for i := range grp.accs {
			grp.accs[i].add(env)
		}
	}
	// A global aggregate over zero rows still yields one output row
	// (count=0 etc.), matching SQL semantics.
	if len(groups) == 0 && len(q.GroupExprs) == 0 {
		grp := &group{accs: make([]*aggAcc, len(q.AggCalls))}
		for i := range q.AggCalls {
			grp.accs[i] = newAggAcc(q.AggCalls[i])
		}
		groups[""] = grp
		order = append(order, "")
	}
	for _, k := range order {
		grp := groups[k]
		synth := make(types.Row, 0, len(grp.keys)+len(grp.accs))
		synth = append(synth, grp.keys...)
		for _, a := range grp.accs {
			synth = append(synth, a.result())
		}
		env := expr.Env{synth}
		if q.Having != nil && !q.Having.Eval(env).Truthy() {
			continue
		}
		row := make(types.Row, len(q.PostItems))
		for i, e := range q.PostItems {
			row[i] = e.Eval(env)
		}
		out.Append(row)
	}
	return out, nil
}

// aggAcc accumulates one aggregate call.
type aggAcc struct {
	call analyze.AggCall
	cur  types.Value
	n    int64
	sum  types.Value
	seen map[string]struct{}
	any  bool
}

func newAggAcc(c analyze.AggCall) *aggAcc {
	a := &aggAcc{call: c, sum: types.Int(0)}
	if c.Distinct {
		a.seen = map[string]struct{}{}
	}
	return a
}

func (a *aggAcc) add(env expr.Env) {
	var v types.Value
	if a.call.Star {
		v = types.Int(1)
	} else {
		v = a.call.Arg.Eval(env)
		if v.IsNull() {
			return
		}
	}
	if a.seen != nil {
		k := types.RowKeyString(types.Row{v})
		if _, dup := a.seen[k]; dup {
			return
		}
		a.seen[k] = struct{}{}
	}
	a.n++
	switch a.call.Kind {
	case types.AggMin:
		if !a.any || v.Compare(a.cur) < 0 {
			a.cur = v
		}
	case types.AggMax:
		if !a.any || v.Compare(a.cur) > 0 {
			a.cur = v
		}
	case types.AggSum, types.AggAvg:
		a.sum = a.sum.Add(v)
	}
	a.any = true
}

func (a *aggAcc) result() types.Value {
	switch a.call.Kind {
	case types.AggCount:
		return types.Int(a.n)
	case types.AggSum:
		if !a.any {
			return types.Null()
		}
		return a.sum
	case types.AggAvg:
		if a.n == 0 {
			return types.Null()
		}
		return types.Float(a.sum.AsFloat() / float64(a.n))
	default: // min/max
		if !a.any {
			return types.Null()
		}
		return a.cur
	}
}

// JoinSources materializes the join of the FROM sources under the given
// conjuncts, returning one environment per result tuple. Conjuncts are
// applied as soon as all their inputs are bound (predicate pushdown), and
// equi-join conjuncts drive hash joins; remaining combinations fall back to
// nested-loop evaluation.
func JoinSources(sources []analyze.Source, conjuncts []expr.Expr, ctx *Context) ([]expr.Env, error) {
	rels := make([]*relation.Relation, len(sources))
	for i, s := range sources {
		r, err := ctx.SourceRelation(s)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	rows := make([][]types.Row, len(sources))
	for i, r := range rels {
		rows[i] = r.Rows
	}
	return JoinRows(len(sources), rows, conjuncts), nil
}

// JoinRows is JoinSources over pre-resolved per-source row slices; the
// fixpoint engine uses it with delta/all substitutions.
func JoinRows(n int, rows [][]types.Row, conjuncts []expr.Expr) []expr.Env {
	if n == 0 {
		return []expr.Env{make(expr.Env, 0)}
	}
	pending := make([]pend, len(conjuncts))
	for i, c := range conjuncts {
		pending[i] = pend{e: c, inputs: expr.Inputs(c)}
	}
	applied := make([]bool, len(conjuncts))

	bound := map[int]bool{0: true}
	// Source 0's environments are carved from one slab; the full-slice caps
	// keep an append to one from running into its neighbour.
	envs := make([]expr.Env, len(rows[0]))
	slab := make(expr.Env, n*len(rows[0]))
	for i, r := range rows[0] {
		envs[i] = slab[i*n : (i+1)*n : (i+1)*n]
		envs[i][0] = r
	}
	envs = applyReady(envs, pending, applied, bound)

	for next := 1; next < n; next++ {
		bound[next] = true
		// Find an equi-join conjunct connecting the bound set to next.
		var probeCols, buildCols []int
		for i, p := range pending {
			if applied[i] {
				continue
			}
			ej, ok := expr.AsEquiJoin(p.e)
			if !ok {
				continue
			}
			var boundSide, boundCol, newCol int
			switch {
			case ej.RightInput == next && bound[ej.LeftInput] && ej.LeftInput != next:
				boundSide, boundCol, newCol = ej.LeftInput, ej.LeftCol, ej.RightCol
			case ej.LeftInput == next && bound[ej.RightInput] && ej.RightInput != next:
				boundSide, boundCol, newCol = ej.RightInput, ej.RightCol, ej.LeftCol
			default:
				continue
			}
			probeCols = append(probeCols, boundSide, boundCol)
			buildCols = append(buildCols, newCol)
			applied[i] = true
		}
		if len(buildCols) > 0 {
			// Hash join on the collected key columns.
			table := make(map[string][]types.Row, len(rows[next]))
			for _, r := range rows[next] {
				table[types.KeyString(r, buildCols)] = append(table[types.KeyString(r, buildCols)], r)
			}
			var out []expr.Env
			key := make(types.Row, len(buildCols))
			for _, env := range envs {
				for i := 0; i < len(buildCols); i++ {
					key[i] = env[probeCols[2*i]][probeCols[2*i+1]]
				}
				for _, m := range table[types.RowKeyString(key)] {
					ne := make(expr.Env, n)
					copy(ne, env)
					ne[next] = m
					out = append(out, ne)
				}
			}
			envs = out
		} else {
			// Cross product; theta conjuncts apply right after.
			var out []expr.Env
			for _, env := range envs {
				for _, m := range rows[next] {
					ne := make(expr.Env, n)
					copy(ne, env)
					ne[next] = m
					out = append(out, ne)
				}
			}
			envs = out
		}
		envs = applyReady(envs, pending, applied, bound)
	}
	return envs
}

// pend is a conjunct awaiting all its inputs to be bound.
type pend struct {
	e      expr.Expr
	inputs map[int]bool
}

func applyReady(envs []expr.Env, pending []pend, applied []bool, bound map[int]bool) []expr.Env {
	for i, p := range pending {
		if applied[i] {
			continue
		}
		ready := true
		for in := range p.inputs {
			if !bound[in] {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		applied[i] = true
		kept := envs[:0]
		for _, env := range envs {
			if p.e.Eval(env).Truthy() {
				kept = append(kept, env)
			}
		}
		envs = kept
	}
	return envs
}
