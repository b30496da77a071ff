// Package exec evaluates analyzed (non-recursive) queries locally: FROM
// joins with hash-join acceleration, WHERE filtering with predicate
// pushdown, grouping with the full aggregate set, unions, DISTINCT, ORDER
// BY and LIMIT. It materializes named views on demand and resolves
// recursive-view references through a caller-supplied result map, so final
// queries over fixpoint results run here too. Its Grouping is also the
// fixpoint's final stage's fold, so the engine's routes share it; the
// independent reference it is tested against is the materializing
// evaluator of the root package's exec differential test.
package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/types"
)

// Context supplies table-independent state for evaluation.
type Context struct {
	// RecResults maps recursive view names (lower-cased) to their
	// computed fixpoint relations; SetRecResult creates it.
	RecResults map[string]*relation.Relation
	// Ctx, when non-nil, is the query's context: a statement's join polls
	// it every 4,096 rows it visits and stops with its error once it is
	// cancelled or past its deadline.
	Ctx context.Context
	// viewCache memoizes materialized named views, created by the first.
	viewCache map[string]*relation.Relation
}

// NewContext creates an empty evaluation context.
func NewContext() *Context {
	return &Context{}
}

// SetRecResult registers a fixpoint result for a recursive view.
func (c *Context) SetRecResult(name string, rel *relation.Relation) {
	if c.RecResults == nil {
		c.RecResults = map[string]*relation.Relation{}
	}
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
			if c.viewCache == nil {
				c.viewCache = map[string]*relation.Relation{}
			}
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

// RowSink receives a statement's result rows, in order. The row a call
// hands over is valid only during that call: a sink that keeps it copies
// it.
type RowSink interface {
	Row(types.Row)
}

// Query evaluates an analyzed query to a relation: its branches in order,
// each deduplicated on its own under its own DISTINCT, then UNION, ORDER BY
// and LIMIT over their rows. An ungrouped branch is projected through the
// pipeline Run streams, into a sink that copies its rows into one value
// slab.
func Query(q *analyze.Query, ctx *Context) (*relation.Relation, error) {
	rows, err := queryRows(q, ctx)
	if err != nil {
		return nil, err
	}
	return relation.FromRows("", q.Schema, rows), nil
}

// Run evaluates q as Query does and hands its rows to sink, in Query's
// order. A query of one ungrouped branch with no DISTINCT, UNION, ORDER BY
// or LIMIT streams: each joined tuple is projected into one reused row and
// handed on at once, so its rows are never held. Any other query is built
// in full, then handed on row by row. On an error, sink may have seen some
// of the rows.
func Run(q *analyze.Query, ctx *Context, sink RowSink) error {
	if q.Grouped || q.Distinct || len(q.Unions) > 0 || len(q.OrderBy) > 0 || q.Limit >= 0 {
		rows, err := queryRows(q, ctx)
		if err != nil {
			return err
		}
		for _, r := range rows {
			sink.Row(r)
		}
		return nil
	}
	rows, err := ctx.sourceRows(q.Sources)
	if err != nil {
		return err
	}
	return project(q, ctx, rows, sink)
}

// queryRows is Query's evaluation: the result's rows.
func queryRows(q *analyze.Query, ctx *Context) ([]types.Row, error) {
	out, err := branchRows(q, ctx)
	if err != nil {
		return nil, err
	}
	for i, u := range q.Unions {
		ur, err := branchRows(u, ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, ur...)
		if !q.All[i] {
			out = relation.DedupRows(out)
		}
	}
	if len(q.OrderBy) > 0 {
		keys := q.OrderBy
		sort.SliceStable(out, func(i, j int) bool {
			for _, k := range keys {
				c := out[i][k.Idx].Compare(out[j][k.Idx])
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
	if q.Limit >= 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// branchRows evaluates one SELECT branch to its rows: a grouped branch
// folds every joined tuple into a Grouping, an ungrouped one projects them
// into a slabSink; then its own DISTINCT.
func branchRows(q *analyze.Query, ctx *Context) ([]types.Row, error) {
	rows, err := ctx.sourceRows(q.Sources)
	if err != nil {
		return nil, err
	}
	var out []types.Row
	if q.Grouped {
		var g Grouping
		g.Reset(q)
		if len(rows) == 1 {
			g.reserve(len(rows[0]))
		}
		if err := JoinRows(ctx.Ctx, len(rows), rows, q.Conjuncts, g.Add); err != nil {
			return nil, err
		}
		out = g.Finish()
	} else {
		s := slabSink{width: len(q.Items)}
		if len(rows) == 1 && len(q.Conjuncts) == 0 {
			// One source and no filter: the output has exactly its rows.
			s.vals = make([]types.Value, 0, s.width*len(rows[0]))
		}
		if err := project(q, ctx, rows, &s); err != nil {
			return nil, err
		}
		out = s.rows()
	}
	if q.Distinct {
		out = relation.DedupRows(out)
	}
	return out, nil
}

// project joins an ungrouped branch's sources and hands sink each joined
// tuple's select items, evaluated into one reused row.
func project(q *analyze.Query, ctx *Context, rows [][]types.Row, sink RowSink) error {
	row := make(types.Row, len(q.Items))
	return JoinRows(ctx.Ctx, len(rows), rows, q.Conjuncts, func(env expr.Env) {
		for i, e := range q.Items {
			row[i] = e.Eval(env)
		}
		sink.Row(row)
	})
}

// slabSink is the RowSink a relation is built with: it appends each row's
// values to one slab, which its rows are cut from once the last has come.
type slabSink struct {
	width, n int
	vals     []types.Value
}

func (s *slabSink) Row(r types.Row) {
	s.vals = append(s.vals, r...)
	s.n++
}

// rows cuts the rows from the slab.
func (s *slabSink) rows() []types.Row {
	out := make([]types.Row, s.n)
	for i := range out {
		out[i] = s.vals[i*s.width : (i+1)*s.width : (i+1)*s.width]
	}
	return out
}

// sourceRows resolves the FROM sources to their row slices.
func (c *Context) sourceRows(sources []analyze.Source) ([][]types.Row, error) {
	rows := make([][]types.Row, len(sources))
	for i, s := range sources {
		r, err := c.SourceRelation(s)
		if err != nil {
			return nil, err
		}
		rows[i] = r.Rows
	}
	return rows, nil
}

// pollEvery is how many rows a join visits between two reads of its
// context.
const pollEvery = 4096

// JoinRows joins n sources, given as per-source row slices, under the
// conjuncts and pushes every result tuple into sink. Sources are bound in
// order, depth first. An equi-join conjunct drives a hash join into the
// later of its two sources, whose cluster.RowTable is built once, as the
// engine's build sides are, and leaves out the rows whose key holds a
// NULL; every other conjunct filters as soon as all its inputs are bound
// (predicate pushdown); a source with no equi-join is scanned in full. A
// bucket keeps its rows in input order, so tuples reach the sink in the
// order a breadth-first materialization would list them. The environment
// the sink receives is reused for the next tuple, so it is valid only
// inside the call, and a hash-joined source's row in it is the table's
// copy, not the input row. Every 4,096 rows it visits, whether or not
// they reach the sink, the join reads ctx (nil: never cancelled) and stops
// with its error once it is done.
func JoinRows(ctx context.Context, n int, rows [][]types.Row, conjuncts []expr.Expr, sink func(expr.Env)) error {
	if n == 0 {
		for _, c := range conjuncts {
			if !c.Eval(expr.Env{}).Truthy() {
				return nil
			}
		}
		sink(expr.Env{})
		return nil
	}
	j := joiner{ctx: ctx, rows: rows, levels: make([]joinLevel, n), env: make(expr.Env, n)}
	for _, c := range conjuncts {
		// AsEquiJoin puts the earlier source on the left, so it is bound
		// by the time the right one is.
		if ej, ok := expr.AsEquiJoin(c); ok {
			lv := &j.levels[ej.RightInput]
			lv.probe = append(lv.probe, ej.LeftInput, ej.LeftCol)
			lv.build = append(lv.build, ej.RightCol)
			continue
		}
		at := max(expr.MaxInput(c), 0)
		j.levels[at].filters = append(j.levels[at].filters, c)
	}
	for d := range j.levels {
		if lv := &j.levels[d]; len(lv.build) > 0 {
			lv.table = cluster.BuildRowTable(rows[d], lv.build)
			lv.vals = make([]types.Value, len(lv.build))
		}
	}
	return j.bind(0, sink)
}

// joiner is one JoinRows call's plan and its reused state. The sink is
// passed down bind's calls rather than kept here, so that the environment
// it is handed does not make it, and what it captures, escape.
type joiner struct {
	ctx     context.Context
	visited int
	rows    [][]types.Row
	levels  []joinLevel
	env     expr.Env
}

// joinLevel binds one source: through a RowTable on its build columns,
// probed with the values of the bound (source, column) pairs in probe,
// gathered into vals, or by a scan when it has none; filters are the
// conjuncts that become ready once it is bound.
type joinLevel struct {
	probe   []int
	build   []int
	table   *cluster.RowTable
	vals    []types.Value
	filters []expr.Expr
}

// bind enumerates the candidates of source d under the tuple bound so far.
func (j *joiner) bind(d int, sink func(expr.Env)) error {
	if d == len(j.levels) {
		sink(j.env)
		return nil
	}
	lv := &j.levels[d]
	cands := j.rows[d]
	if lv.table != nil {
		for i := range lv.vals {
			lv.vals[i] = j.env[lv.probe[2*i]][lv.probe[2*i+1]]
		}
		cands = lv.table.ProbeValues(lv.vals)
	}
next:
	for _, r := range cands {
		if j.visited++; j.visited%pollEvery == 0 && j.ctx != nil {
			if err := j.ctx.Err(); err != nil {
				return fmt.Errorf("exec: join cancelled after %d rows: %w", j.visited, err)
			}
		}
		j.env[d] = r
		for _, f := range lv.filters {
			if !f.Eval(j.env).Truthy() {
				continue next
			}
		}
		if err := j.bind(d+1, sink); err != nil {
			return err
		}
	}
	return nil
}
