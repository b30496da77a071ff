package analyze

import (
	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/types"
)

// Statement analyzes one SELECT or WITH statement.
func Statement(s ast.Statement, cat *catalog.Catalog) (*Program, error) {
	a := &analyzer{cat: cat, viewCache: map[string]*Query{}}
	switch x := s.(type) {
	case *ast.Select:
		q, err := a.analyzeSelect(x, "query")
		if err != nil {
			return nil, err
		}
		return &Program{Final: q}, nil
	case *ast.With:
		return a.analyzeWith(x)
	case *ast.CreateView:
		return nil, errf("", "CREATE VIEW must be followed by a query")
	default:
		return nil, errf("", "unsupported statement")
	}
}

// resolveSources binds the FROM list of a select.
func (a *analyzer) resolveSources(from []ast.TableRef, ctx string) ([]Source, error) {
	sources := make([]Source, 0, len(from))
	seen := map[string]bool{}
	for _, t := range from {
		b := t.Binding()
		lb := toLower(b)
		if seen[lb] {
			return nil, errf(ctx, "duplicate table binding %q", b)
		}
		seen[lb] = true
		src, err := a.resolveSource(t, ctx)
		if err != nil {
			return nil, err
		}
		sources = append(sources, src)
	}
	return sources, nil
}

func (a *analyzer) resolveSource(t ast.TableRef, ctx string) (Source, error) {
	if t.Sub != nil {
		// Derived table: analyze the sub-select; its output schema is the
		// source schema. It behaves as an anonymous, uncached view.
		sq, err := a.analyzeSelect(t.Sub, ctx+" derived table "+t.Alias)
		if err != nil {
			return Source{}, err
		}
		return Source{Binding: t.Binding(), Kind: SourceView, ViewQuery: sq, Schema: sq.Schema}, nil
	}
	// Resolution order: clique views shadow catalog views shadow tables.
	if a.clique != nil {
		if rv := a.clique.ViewByName(t.Name); rv != nil {
			return Source{Binding: t.Binding(), Kind: SourceRec, Rec: rv, Schema: rv.Schema}, nil
		}
	}
	if vd, ok := a.localViews[toLower(t.Name)]; ok {
		vq, err := a.analyzeView(vd, ctx)
		if err != nil {
			return Source{}, err
		}
		return Source{Binding: t.Binding(), Kind: SourceView, ViewQuery: vq,
			ViewName: vd.Name, Schema: vq.Schema}, nil
	}
	if vd, ok := a.cat.View(t.Name); ok {
		vq, err := a.analyzeView(vd, ctx)
		if err != nil {
			return Source{}, err
		}
		return Source{Binding: t.Binding(), Kind: SourceView, ViewQuery: vq,
			ViewName: vd.Name, Schema: vq.Schema}, nil
	}
	if rel, ok := a.cat.Table(t.Name); ok {
		return Source{Binding: t.Binding(), Kind: SourceTable, Rel: rel, Schema: rel.Schema}, nil
	}
	return Source{}, errf(ctx, "unknown table or view %q", t.Name)
}

// analyzeView analyzes a named view's definition, applying its declared
// column names and caching the result. Cyclic view definitions error.
func (a *analyzer) analyzeView(vd *catalog.ViewDef, ctx string) (*Query, error) {
	lname := toLower(vd.Name)
	if q, ok := a.viewCache[lname]; ok {
		return q, nil
	}
	for _, n := range a.viewStack {
		if n == lname {
			return nil, errf(ctx, "cyclic view definition involving %q", vd.Name)
		}
	}
	a.viewStack = append(a.viewStack, lname)
	defer func() { a.viewStack = a.viewStack[:len(a.viewStack)-1] }()

	q, err := a.analyzeSelect(vd.Query, "view "+vd.Name)
	if err != nil {
		return nil, err
	}
	if len(vd.Columns) != q.Schema.Len() {
		return nil, errf("view "+vd.Name, "declares %d columns but query produces %d",
			len(vd.Columns), q.Schema.Len())
	}
	renamed := q.Schema
	renamed.Columns = append([]types.Column(nil), q.Schema.Columns...)
	for i, c := range vd.Columns {
		renamed.Columns[i].Name = c
	}
	q.Schema = renamed
	a.viewCache[lname] = q
	return q, nil
}

// analyzeSelect analyzes a general (possibly grouped, possibly unioned)
// select statement.
func (a *analyzer) analyzeSelect(sel *ast.Select, ctx string) (*Query, error) {
	q, err := a.analyzeSelectCore(sel, ctx)
	if err != nil {
		return nil, err
	}
	for i, u := range sel.Unions {
		uq, err := a.analyzeSelectCore(u.Select, ctx)
		if err != nil {
			return nil, err
		}
		if uq.Schema.Len() != q.Schema.Len() {
			return nil, errf(ctx, "UNION branches have %d and %d columns",
				q.Schema.Len(), uq.Schema.Len())
		}
		for j := range q.Schema.Columns {
			k, err := unifyKind(ctx, q.Schema.Columns[j].Name,
				q.Schema.Columns[j].Type, uq.Schema.Columns[j].Type)
			if err != nil {
				return nil, err
			}
			q.Schema.Columns[j].Type = k
		}
		q.Unions = append(q.Unions, uq)
		q.All = append(q.All, u.All)
		_ = i
	}
	return q, nil
}

func (a *analyzer) analyzeSelectCore(sel *ast.Select, ctx string) (*Query, error) {
	sources, err := a.resolveSources(sel.From, ctx)
	if err != nil {
		return nil, err
	}
	sc := &scope{sources: sources, ctx: ctx}
	q := &Query{Sources: sources, Limit: sel.Limit, Distinct: sel.Distinct, NoFrom: len(sel.From) == 0}

	if sel.Where != nil {
		if ast.HasAggregate(sel.Where) {
			return nil, errf(ctx, "aggregates are not allowed in WHERE")
		}
		w, err := sc.resolveExpr(sel.Where)
		if err != nil {
			return nil, err
		}
		q.Conjuncts = expr.SplitConjuncts(expr.Fold(w))
	}

	// Expand stars.
	items := make([]ast.SelectItem, 0, len(sel.Items))
	for _, it := range sel.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		if len(sources) == 0 {
			return nil, errf(ctx, "SELECT * requires a FROM clause")
		}
		for si, src := range sources {
			for ci, col := range src.Schema.Columns {
				items = append(items, ast.SelectItem{
					Expr:  &ast.ColumnRef{Table: src.Binding, Name: col.Name},
					Alias: col.Name,
				})
				_ = si
				_ = ci
			}
		}
	}
	if len(items) == 0 {
		return nil, errf(ctx, "SELECT list is empty")
	}

	grouped := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range items {
		if ast.HasAggregate(it.Expr) {
			grouped = true
		}
	}

	names := make([]string, len(items))
	for i, it := range items {
		names[i] = outName(it, i)
	}

	if !grouped {
		q.Items = make([]expr.Expr, len(items))
		kinds := make([]types.Kind, len(items))
		for i, it := range items {
			e, err := sc.resolveExpr(it.Expr)
			if err != nil {
				return nil, err
			}
			q.Items[i] = expr.Fold(e)
			kinds[i] = expr.InferKind(q.Items[i], sc.schemas())
		}
		q.Schema = schemaOf(names, kinds)
		if err := a.resolveOrderBy(q, sel, names, ctx); err != nil {
			return nil, err
		}
		return q, nil
	}

	// Grouped query: resolve group expressions, collect aggregate calls,
	// and rewrite items/HAVING over the synthetic [groups..., aggs...] env.
	q.Grouped = true
	g := &groupedRewriter{a: a, sc: sc, groupAST: sel.GroupBy, ctx: ctx}
	for _, ge := range sel.GroupBy {
		re, err := sc.resolveExpr(ge)
		if err != nil {
			return nil, err
		}
		q.GroupExprs = append(q.GroupExprs, expr.Fold(re))
	}
	q.PostItems = make([]expr.Expr, len(items))
	kinds := make([]types.Kind, len(items))
	for i, it := range items {
		pe, k, err := g.rewrite(it.Expr)
		if err != nil {
			return nil, err
		}
		q.PostItems[i] = pe
		kinds[i] = k
	}
	if sel.Having != nil {
		h, _, err := g.rewrite(sel.Having)
		if err != nil {
			return nil, err
		}
		q.Having = h
	}
	q.AggCalls = g.calls
	q.Schema = schemaOf(names, kinds)
	if err := a.resolveOrderBy(q, sel, names, ctx); err != nil {
		return nil, err
	}
	return q, nil
}

func (a *analyzer) resolveOrderBy(q *Query, sel *ast.Select, names []string, ctx string) error {
	for _, o := range sel.OrderBy {
		switch x := o.Expr.(type) {
		case *ast.Literal:
			if x.Value.K != types.KindInt || x.Value.I < 1 || int(x.Value.I) > len(names) {
				return errf(ctx, "ORDER BY ordinal %v out of range", x.Value)
			}
			q.OrderBy = append(q.OrderBy, OrderKey{Idx: int(x.Value.I) - 1, Desc: o.Desc})
		case *ast.ColumnRef:
			idx := -1
			for i, n := range names {
				if equalFold(n, x.Name) {
					idx = i
					break
				}
			}
			if idx < 0 {
				return errf(ctx, "ORDER BY column %q is not in the SELECT list", x.Name)
			}
			q.OrderBy = append(q.OrderBy, OrderKey{Idx: idx, Desc: o.Desc})
		default:
			return errf(ctx, "ORDER BY supports output columns or ordinals, not %s", o.Expr)
		}
	}
	return nil
}

func schemaOf(names []string, kinds []types.Kind) types.Schema {
	cols := make([]types.Column, len(names))
	for i := range names {
		cols[i] = types.Col(names[i], kinds[i])
	}
	return types.NewSchema(cols...)
}

// groupedRewriter rewrites item/HAVING expressions of a grouped query into
// expressions over the synthetic environment [group values..., agg values...].
type groupedRewriter struct {
	a        *analyzer
	sc       *scope
	groupAST []ast.Expr
	calls    []AggCall
	ctx      string
}

func (g *groupedRewriter) rewrite(e ast.Expr) (expr.Expr, types.Kind, error) {
	// A (sub)expression that textually matches a GROUP BY expression
	// refers to the group key.
	if i := matchesGroupExpr(e, g.groupAST); i >= 0 {
		re, err := g.sc.resolveExpr(g.groupAST[i])
		if err != nil {
			return nil, 0, err
		}
		return &expr.Col{Input: 0, Idx: i, Name: "group" + itoa(i)},
			expr.InferKind(re, g.sc.schemas()), nil
	}
	switch x := e.(type) {
	case *ast.FuncCall:
		if x.Agg == types.AggNone {
			return nil, 0, errf(g.ctx, "unknown function %q", x.Name)
		}
		call := AggCall{Kind: x.Agg, Distinct: x.Distinct, Star: x.Star}
		kind := types.KindInt
		if !x.Star {
			arg, err := g.sc.resolveExpr(x.Args[0])
			if err != nil {
				return nil, 0, err
			}
			if ast.HasAggregate(x.Args[0]) {
				return nil, 0, errf(g.ctx, "nested aggregates are not allowed")
			}
			call.Arg = arg
			switch x.Agg {
			case types.AggCount:
				kind = types.KindInt
			case types.AggAvg:
				kind = types.KindFloat
			default:
				kind = expr.InferKind(arg, g.sc.schemas())
				if x.Agg == types.AggSum && kind == types.KindInt {
					kind = types.KindInt
				}
			}
		}
		idx := len(g.groupAST) + len(g.calls)
		g.calls = append(g.calls, call)
		return &expr.Col{Input: 0, Idx: idx, Name: x.Name}, kind, nil
	case *ast.Literal:
		return &expr.Lit{V: x.Value}, x.Value.K, nil
	case *ast.Binary:
		l, lk, err := g.rewrite(x.L)
		if err != nil {
			return nil, 0, err
		}
		r, rk, err := g.rewrite(x.R)
		if err != nil {
			return nil, 0, err
		}
		kind := types.KindBool
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpMod:
			kind = types.KindInt
			if lk == types.KindFloat || rk == types.KindFloat {
				kind = types.KindFloat
			}
		case ast.OpDiv:
			kind = types.KindFloat
		}
		return &expr.Bin{Op: x.Op, L: l, R: r}, kind, nil
	case *ast.Unary:
		inner, k, err := g.rewrite(x.E)
		if err != nil {
			return nil, 0, err
		}
		if x.Op == "NOT" {
			return &expr.Not{E: inner}, types.KindBool, nil
		}
		return &expr.Neg{E: inner}, k, nil
	case *ast.ColumnRef:
		return nil, 0, errf(g.ctx, "column %s must appear in GROUP BY or inside an aggregate", x)
	default:
		return nil, 0, errf(g.ctx, "unsupported expression %s in grouped query", e)
	}
}

func toLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
