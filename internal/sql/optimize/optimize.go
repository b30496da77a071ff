// Package optimize implements the rule batch the paper's Section 5 runs
// after analysis: constant evaluation and filter combination happen during
// analysis (expr.Fold / expr.SplitConjuncts); this package adds the
// plan-level rewrites — trivial-conjunct elimination and predicate pushdown
// into (derived) views — applied to the analyzed program before planning.
package optimize

import (
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/expr"
)

// Program optimizes an analyzed program in place and returns it.
func Program(p *analyze.Program) *analyze.Program {
	if p.Final != nil {
		optimizeQuery(p.Final)
	}
	if p.Clique != nil {
		for _, v := range p.Clique.Views {
			for _, r := range append(append([]*analyze.Rule{}, v.BaseRules...), v.RecRules...) {
				r.Conjuncts = simplifyConjuncts(r.Conjuncts)
				for _, s := range r.Sources {
					if s.Kind == analyze.SourceView {
						optimizeQuery(s.ViewQuery)
					}
				}
			}
		}
	}
	return p
}

func optimizeQuery(q *analyze.Query) {
	q.Conjuncts = simplifyConjuncts(q.Conjuncts)
	q.Conjuncts = pushIntoViews(q)
	for _, s := range q.Sources {
		if s.Kind == analyze.SourceView {
			optimizeQuery(s.ViewQuery)
		}
	}
	for _, u := range q.Unions {
		optimizeQuery(u)
	}
}

// simplifyConjuncts drops constant-true conjuncts (e.g. residue of folded
// literals) and keeps everything else.
func simplifyConjuncts(conjuncts []expr.Expr) []expr.Expr {
	out := conjuncts[:0]
	for _, c := range conjuncts {
		if lit, ok := c.(*expr.Lit); ok && lit.V.Truthy() {
			continue
		}
		out = append(out, c)
	}
	return out
}

// pushIntoViews moves conjuncts that reference a single view source down
// into that view's own WHERE clause, substituting the view's item
// expressions for output-column references. Filtering before
// materialization shrinks the intermediate — classic predicate pushdown.
//
// The push is performed only when it is semantics-preserving and
// worthwhile: the view must be ungrouped, without DISTINCT/ORDER BY/LIMIT
// and without UNION branches.
func pushIntoViews(q *analyze.Query) []expr.Expr {
	kept := q.Conjuncts[:0]
	for _, c := range q.Conjuncts {
		inputs := expr.Inputs(c)
		if len(inputs) != 1 {
			kept = append(kept, c)
			continue
		}
		var si int
		for i := range inputs {
			si = i
		}
		src := q.Sources[si]
		// Named views share one analyzed query across all references
		// (and across statements); mutating them would leak the filter
		// into other readers. Only anonymous derived tables — private to
		// this FROM item — are pushed into.
		if src.Kind != analyze.SourceView || src.ViewName != "" || !pushable(src.ViewQuery) {
			kept = append(kept, c)
			continue
		}
		pushed, ok := substitute(c, src.ViewQuery.Items)
		if !ok {
			kept = append(kept, c)
			continue
		}
		src.ViewQuery.Conjuncts = append(src.ViewQuery.Conjuncts, pushed)
	}
	return kept
}

func pushable(v *analyze.Query) bool {
	return v != nil && !v.Grouped && !v.Distinct && len(v.Unions) == 0 &&
		len(v.OrderBy) == 0 && v.Limit < 0 && !v.NoFrom
}

// substitute rewrites an expression over a view's output columns into one
// over the view's own sources, by replacing output-column references with
// the view's item expressions.
func substitute(e expr.Expr, items []expr.Expr) (expr.Expr, bool) {
	switch x := e.(type) {
	case *expr.Col:
		if x.Idx < 0 || x.Idx >= len(items) {
			return nil, false
		}
		return items[x.Idx], true
	case *expr.Lit:
		return x, true
	case *expr.Bin:
		l, ok := substitute(x.L, items)
		if !ok {
			return nil, false
		}
		r, ok := substitute(x.R, items)
		if !ok {
			return nil, false
		}
		return &expr.Bin{Op: x.Op, L: l, R: r}, true
	case *expr.Not:
		inner, ok := substitute(x.E, items)
		if !ok {
			return nil, false
		}
		return &expr.Not{E: inner}, true
	case *expr.Neg:
		inner, ok := substitute(x.E, items)
		if !ok {
			return nil, false
		}
		return &expr.Neg{E: inner}, true
	default:
		return nil, false
	}
}
