// Package analyze implements semantic analysis: it resolves names against a
// catalog, classifies recursive-CTE branches into base and recursive rules
// (the paper's first compile step, building the Recursive Clique Plan),
// applies RaSQL's implicit group-by rule to aggregate heads, and produces
// resolved queries ready for planning.
package analyze

import (
	"fmt"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/types"
)

// Program is the analysis result for one statement (plus any CREATE VIEWs
// that preceded it).
type Program struct {
	// Clique holds the recursive views of a WITH statement; nil when the
	// statement has no recursive CTEs.
	Clique *Clique
	// Final is the body/select query.
	Final *Query
}

// SourceKind classifies a FROM source.
type SourceKind uint8

// The source kinds.
const (
	// SourceTable is a catalog base table.
	SourceTable SourceKind = iota
	// SourceView is a non-recursive named view (CREATE VIEW or a
	// non-recursive CTE), materialized before the main query runs.
	SourceView
	// SourceRec is a reference to a recursive view of the current clique.
	SourceRec
)

// Source is one resolved FROM item.
type Source struct {
	// Binding is the name the source is referenced by (alias if given).
	Binding string
	Kind    SourceKind
	// Rel is the base table for SourceTable.
	Rel *relation.Relation
	// ViewQuery is the analyzed query for SourceView.
	ViewQuery *Query
	// ViewName names the view for SourceView (for materialization caching).
	ViewName string
	// Rec points at the clique view for SourceRec.
	Rec *RecView
	// Schema is the source's column schema.
	Schema types.Schema
}

// AggCall is one aggregate invocation in a stratified (non-recursive)
// query's SELECT items or HAVING clause.
type AggCall struct {
	Kind     types.AggKind
	Distinct bool
	Star     bool
	// Arg is the aggregated expression (nil for count(*)).
	Arg expr.Expr
}

// OrderKey is one resolved ORDER BY key.
type OrderKey struct {
	// Idx indexes the output column to sort by.
	Idx  int
	Desc bool
}

// Query is a resolved select. For grouped queries the SELECT items and
// HAVING run over a synthetic environment of [group values..., aggregate
// values...]; for ungrouped ones Items run directly over the FROM sources.
type Query struct {
	Sources   []Source
	Conjuncts []expr.Expr
	// NoFrom marks a literal SELECT (e.g. `SELECT 1, 0`).
	NoFrom bool

	// Items are the output expressions of an ungrouped query.
	Items []expr.Expr

	// Grouped marks aggregate queries. GroupExprs run over the sources;
	// AggCalls accumulate; PostItems and Having run over the synthetic
	// grouped environment.
	Grouped    bool
	GroupExprs []expr.Expr
	AggCalls   []AggCall
	PostItems  []expr.Expr
	Having     expr.Expr

	Distinct bool
	OrderBy  []OrderKey
	Limit    int // -1 when absent

	// Unions holds additional branches; All[i] is true for UNION ALL.
	Unions []*Query
	All    []bool

	// Schema is the output schema.
	Schema types.Schema
}

// Clique is a set of mutually recursive views analyzed together — the
// paper's Recursive Clique Plan.
type Clique struct {
	Views []*RecView
	// NonRec holds WITH-clause CTEs that turned out not to be recursive;
	// they behave as named views.
	NonRec []*catalog.ViewDef
}

// ViewByName finds a clique view by name (case-insensitive).
func (c *Clique) ViewByName(name string) *RecView {
	for _, v := range c.Views {
		if equalFold(v.Name, name) {
			return v
		}
	}
	return nil
}

// RecView is one recursive view of a clique.
type RecView struct {
	Name   string
	Schema types.Schema
	// Agg is the head aggregate; AggNone for set-semantics views.
	Agg types.AggKind
	// AggIdx is the aggregate column's index, -1 for set views.
	AggIdx int
	// GroupIdx lists the implicit group-by columns (all non-aggregate head
	// columns, per RaSQL's implicit group-by rule).
	GroupIdx []int
	// Index is the view's position within the clique.
	Index int

	BaseRules []*Rule
	RecRules  []*Rule
}

// IsAgg reports whether the view has an aggregate head.
func (v *RecView) IsAgg() bool { return v.Agg != types.AggNone }

// Rule is one analyzed CTE branch: a conjunctive body with head projections.
type Rule struct {
	// View is the rule's owner.
	View *RecView
	// Sources are the FROM items; RecSources indexes those referencing
	// clique views.
	Sources    []Source
	RecSources []int
	Conjuncts  []expr.Expr
	// Head holds one projection per view column.
	Head []expr.Expr
	// NoFrom marks literal base cases such as `SELECT 1, 0`.
	NoFrom bool
}

// Error is an analysis error with query context.
type Error struct {
	Context string
	Msg     string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Context == "" {
		return "analyze: " + e.Msg
	}
	return fmt.Sprintf("analyze: %s: %s", e.Context, e.Msg)
}

func errf(ctx, format string, args ...any) error {
	return &Error{Context: ctx, Msg: fmt.Sprintf(format, args...)}
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
