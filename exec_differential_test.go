package rasql_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/types"
)

// TestExecStreamingMatchesMaterialized: the streaming join and projection
// of package exec give exactly the rows, in exactly the order, of the
// materializing evaluator it replaced, kept below as the reference. The
// inputs are every base rule, recursive rule and final query of the example
// programs, with the recursive sources read from the program's fixpoint,
// and a set of statements over an RMAT graph: scans, filters, hash joins
// on one and two keys, theta and cross joins, groups with every aggregate,
// count(distinct), DISTINCT, ORDER BY, LIMIT, UNION and derived tables, a
// UNION branch's own DISTINCT, the grouped fold's edge cases, and joins,
// DISTINCT and UNION over keys that mix NULL, Int and Float values.
func TestExecStreamingMatchesMaterialized(t *testing.T) {
	for _, c := range exampleCases() {
		t.Run(c.name, func(t *testing.T) {
			eng := rasql.New(rasql.Config{ForceLocal: true})
			for _, r := range c.tables() {
				eng.MustRegister(r)
			}
			prog, err := eng.Compile(c.query)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunClique(prog)
			if err != nil {
				t.Fatal(err)
			}
			ctx := exec.NewContext()
			res.Bind(ctx)
			for _, v := range prog.Clique.Views {
				for i, rule := range append(append([]*analyze.Rule{}, v.BaseRules...), v.RecRules...) {
					t.Run(fmt.Sprintf("%s-rule%d", v.Name, i), func(t *testing.T) {
						compareRule(t, rule, ctx, res.Relations)
					})
				}
			}
			compareQuery(t, prog.Final, ctx)
		})
	}
	// 600 edges: the reference materializes every join tuple, so the
	// statements keep their joins to a few hundred thousand.
	edges := gen.RMATDefault(60, gen.Rng(3))
	edges.Name = "edge"
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(edges)
	eng.MustRegister(mixedKeys())
	for _, q := range []string{
		`SELECT Src, Dst, Cost FROM edge`,
		`SELECT Dst, Cost * 2 FROM edge WHERE Src = 3 AND Cost < 50`,
		`SELECT Src FROM edge WHERE 1 = 0`,
		`SELECT a.Src, b.Dst, a.Cost + b.Cost FROM edge a, edge b WHERE a.Dst = b.Src`,
		`SELECT a.Src, b.Dst FROM edge a, edge b WHERE a.Dst = b.Src AND a.Cost < b.Cost`,
		`SELECT a.Src, b.Dst FROM edge a, edge b WHERE a.Dst = b.Src AND b.Dst = a.Src`,
		`SELECT a.Src, b.Src, b.Cost FROM edge a, edge b WHERE a.Src < 4 AND b.Cost > 90`,
		`SELECT a.Src, c.Dst FROM edge a, edge b, edge c WHERE a.Dst = b.Src AND b.Dst = c.Src AND c.Dst = a.Src`,
		`SELECT a.Src, c.Dst FROM edge a, edge b, edge c WHERE a.Src = 5 AND a.Dst = b.Src AND a.Cost + c.Cost < 20 AND c.Src = 7`,
		`SELECT Src, count(*), count(distinct Dst), sum(Cost), min(Cost), max(Cost), avg(Cost) FROM edge GROUP BY Src HAVING count(*) > 2`,
		`SELECT Dst % 7, count(distinct Src), sum(Src) FROM edge GROUP BY Dst % 7`,
		`SELECT count(distinct Dst), count(*) FROM edge WHERE Cost > 10`,
		`SELECT count(*), sum(Cost) FROM edge WHERE Cost < 0`,
		`SELECT count(*) FROM edge a, edge b WHERE a.Src < 20`,
		`SELECT a.Src, count(*) FROM edge a, edge b WHERE a.Dst = b.Src GROUP BY a.Src`,
		`SELECT DISTINCT Dst FROM edge ORDER BY Dst DESC LIMIT 17`,
		`(SELECT Src FROM edge WHERE Src < 10) UNION (SELECT Dst FROM edge WHERE Dst < 10)`,
		`(SELECT Src FROM edge WHERE Src < 10) UNION ALL (SELECT Dst FROM edge WHERE Dst < 10)`,
		`SELECT 1, 'x', 2.5`,
		`SELECT 1 WHERE 1 = 0`,
		`SELECT 1, 2 WHERE 1 = 1`,
		`SELECT g.Src, g.N FROM (SELECT Src, count(*) N FROM edge GROUP BY Src) g WHERE g.N > 3`,
		`SELECT edge.Src, t.Total FROM edge JOIN (SELECT Dst, sum(Cost) Total FROM edge GROUP BY Dst) t ON edge.Dst = t.Dst WHERE t.Total > 100`,
		`SELECT DISTINCT Src FROM edge UNION ALL SELECT Src FROM edge`,
		`(SELECT DISTINCT Src FROM edge) UNION ALL (SELECT Src FROM edge)`,
		`SELECT Src FROM edge UNION ALL SELECT DISTINCT Src FROM edge`,
		// The grouped fold's edges: DISTINCT on every kind, a key that is
		// NULL for some rows, aggregates whose every input is NULL, HAVING
		// on an avg, no rows, and a sum over strings.
		`SELECT Src, count(distinct Dst), count(distinct Cost), sum(distinct Cost), avg(distinct Dst), min(distinct Cost) FROM edge GROUP BY Src`,
		`SELECT Src / (Dst - 3), count(*), min(Cost) FROM edge GROUP BY Src / (Dst - 3)`,
		`SELECT Src, min(Cost / 0), sum(Cost / 0), avg(Cost / 0), count(Cost / 0), count(*) FROM edge GROUP BY Src`,
		`SELECT Src, avg(Cost) FROM edge GROUP BY Src HAVING avg(Cost) > 40`,
		`SELECT Src, count(*), avg(Cost) FROM edge WHERE Cost < 0 GROUP BY Src`,
		`SELECT count(*), count(distinct Dst), min(Cost), sum(Cost), avg(Cost) FROM edge WHERE Cost < 0`,
		`SELECT Src, sum('x') FROM edge GROUP BY Src`,
		// Keys of mixed kinds: Int(3) meets Float(3.0), and a NULL in
		// either key of a one-key or a two-key join joins nothing, while
		// DISTINCT and UNION keep one NULL.
		`SELECT a.V, b.V FROM kv a, kv b WHERE a.K = b.K`,
		`SELECT a.V, b.V FROM kv a, kv b WHERE a.K = b.K AND a.J = b.J`,
		`SELECT edge.Src, edge.Dst, kv.V FROM edge, kv WHERE edge.Src = kv.K AND edge.Dst > 40`,
		`SELECT DISTINCT K, J FROM kv`,
		`SELECT K FROM kv UNION SELECT J FROM kv`,
	} {
		t.Run(q, func(t *testing.T) {
			prog, err := eng.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			compareQuery(t, prog.Final, exec.NewContext())
		})
	}
}

// mixedKeys is the table kv(K, J, V) whose join keys mix NULL, Int and
// Float values, V naming each row.
func mixedKeys() *rasql.Relation {
	null, i, f := rasql.Null(), rasql.Int, rasql.Float
	schema := rasql.NewSchema(rasql.Col("K", rasql.KindFloat), rasql.Col("J", rasql.KindInt), rasql.Col("V", rasql.KindInt))
	return relOf("kv", schema,
		rasql.Row{i(3), i(1), i(10)},
		rasql.Row{f(3), i(1), i(11)},
		rasql.Row{null, i(1), i(12)},
		rasql.Row{i(3), null, i(13)},
		rasql.Row{f(2.5), i(2), i(14)},
		rasql.Row{i(2), i(2), i(15)},
		rasql.Row{null, null, i(16)},
		rasql.Row{f(3), i(2), i(17)},
		rasql.Row{i(7), i(3), i(18)},
	)
}

func compareRule(t *testing.T, rule *analyze.Rule, ctx *exec.Context, views map[string]*relation.Relation) {
	t.Helper()
	rows := make([][]types.Row, len(rule.Sources))
	for i, s := range rule.Sources {
		if s.Kind == analyze.SourceRec {
			rows[i] = views[strings.ToLower(s.Rec.Name)].Rows
			continue
		}
		rel, err := ctx.SourceRelation(s)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = rel.Rows
	}
	head := func(env expr.Env) types.Row {
		row := make(types.Row, len(rule.Head))
		for i, h := range rule.Head {
			row[i] = h.Eval(env)
		}
		return row
	}
	var want, got []types.Row
	for _, env := range materializedJoin(len(rows), rows, rule.Conjuncts) {
		want = append(want, head(env))
	}
	if err := exec.JoinRows(context.Background(), len(rows), rows, rule.Conjuncts, func(env expr.Env) {
		got = append(got, head(env))
	}); err != nil {
		t.Fatal(err)
	}
	identicalRows(t, got, want)
}

func compareQuery(t *testing.T, q *analyze.Query, ctx *exec.Context) {
	t.Helper()
	want, err := materializedQuery(q, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Query(q, ctx)
	if err != nil {
		t.Fatal(err)
	}
	identicalRows(t, got.Rows, want.Rows)
}

func identicalRows(t *testing.T, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, the materializing evaluator gives %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("row %d is %v, the materializing evaluator gives %v", i, got[i], want[i])
		}
	}
}

// The materializing evaluator: one environment per join tuple, built
// source by source, then projected, grouped and sorted.

func materializedQuery(q *analyze.Query, ctx *exec.Context) (*relation.Relation, error) {
	out, err := materializedCore(q, ctx)
	if err != nil {
		return nil, err
	}
	for i, u := range q.Unions {
		ur, err := materializedCore(u, ctx)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ur.Rows...)
		if !q.All[i] {
			out.Rows = refDedup(out.Rows)
		}
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

// refDedup keeps the first of every set of equal rows, in order, through
// a map over RowKeyString keys rather than the types.Combiner exec dedups
// with.
func refDedup(rows []types.Row) []types.Row {
	seen := map[string]bool{}
	var out []types.Row
	for _, r := range rows {
		if k := types.RowKeyString(r); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func materializedSource(s analyze.Source, ctx *exec.Context) (*relation.Relation, error) {
	if s.Kind != analyze.SourceView {
		return ctx.SourceRelation(s)
	}
	r, err := materializedQuery(s.ViewQuery, ctx)
	if err != nil {
		return nil, err
	}
	r.Name, r.Schema = s.Binding, s.Schema
	return r, nil
}

func materializedCore(q *analyze.Query, ctx *exec.Context) (*relation.Relation, error) {
	rows := make([][]types.Row, len(q.Sources))
	for i, s := range q.Sources {
		r, err := materializedSource(s, ctx)
		if err != nil {
			return nil, err
		}
		rows[i] = r.Rows
	}
	out := materializedSelect(q, materializedJoin(len(q.Sources), rows, q.Conjuncts))
	if q.Distinct {
		out.Rows = refDedup(out.Rows) // a branch's DISTINCT is its own
	}
	return out, nil
}

func materializedSelect(q *analyze.Query, envs []expr.Env) *relation.Relation {
	out := relation.New("", q.Schema)
	if !q.Grouped {
		for _, env := range envs {
			row := make(types.Row, len(q.Items))
			for i, e := range q.Items {
				row[i] = e.Eval(env)
			}
			out.Append(row)
		}
		return out
	}
	type group struct {
		keys types.Row
		accs []*refAgg
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
			grp = &group{keys: keys, accs: make([]*refAgg, len(q.AggCalls))}
			for i := range q.AggCalls {
				grp.accs[i] = newRefAgg(q.AggCalls[i])
			}
			groups[k] = grp
			order = append(order, k)
		}
		for i := range grp.accs {
			grp.accs[i].add(env)
		}
	}
	if len(groups) == 0 && len(q.GroupExprs) == 0 {
		grp := &group{accs: make([]*refAgg, len(q.AggCalls))}
		for i := range q.AggCalls {
			grp.accs[i] = newRefAgg(q.AggCalls[i])
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
	return out
}

type refAgg struct {
	call analyze.AggCall
	cur  types.Value
	n    int64
	sum  types.Value
	seen map[string]struct{}
	any  bool
}

func newRefAgg(c analyze.AggCall) *refAgg {
	a := &refAgg{call: c, sum: types.Int(0)}
	if c.Distinct {
		a.seen = map[string]struct{}{}
	}
	return a
}

func (a *refAgg) add(env expr.Env) {
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

func (a *refAgg) result() types.Value {
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
	default:
		if !a.any {
			return types.Null()
		}
		return a.cur
	}
}

func materializedJoin(n int, rows [][]types.Row, conjuncts []expr.Expr) []expr.Env {
	type pend struct {
		e      expr.Expr
		inputs map[int]bool
	}
	pending := make([]pend, len(conjuncts))
	for i, c := range conjuncts {
		pending[i] = pend{e: c, inputs: expr.Inputs(c)}
	}
	applied := make([]bool, len(conjuncts))
	bound := map[int]bool{0: true}
	applyReady := func(envs []expr.Env) []expr.Env {
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
	if n == 0 {
		return applyReady([]expr.Env{make(expr.Env, 0)})
	}
	envs := make([]expr.Env, len(rows[0]))
	for i, r := range rows[0] {
		envs[i] = make(expr.Env, n)
		envs[i][0] = r
	}
	envs = applyReady(envs)
	for next := 1; next < n; next++ {
		bound[next] = true
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
		var out []expr.Env
		if len(buildCols) > 0 {
			table := make(map[string][]types.Row, len(rows[next]))
			for _, r := range rows[next] {
				// NULL = NULL is not true: a row with a NULL key joins
				// nothing, and a probe with one finds no row.
				if !types.HasNullKey(r, buildCols) {
					table[types.KeyString(r, buildCols)] = append(table[types.KeyString(r, buildCols)], r)
				}
			}
			key := make(types.Row, len(buildCols))
			for _, env := range envs {
				for i := range buildCols {
					key[i] = env[probeCols[2*i]][probeCols[2*i+1]]
				}
				for _, m := range table[types.RowKeyString(key)] {
					ne := make(expr.Env, n)
					copy(ne, env)
					ne[next] = m
					out = append(out, ne)
				}
			}
		} else {
			for _, env := range envs {
				for _, m := range rows[next] {
					ne := make(expr.Env, n)
					copy(ne, env)
					ne[next] = m
					out = append(out, ne)
				}
			}
		}
		envs = applyReady(out)
	}
	return envs
}
