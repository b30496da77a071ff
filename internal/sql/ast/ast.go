// Package ast defines the abstract syntax tree for the RaSQL dialect: the
// SQL:99 subset the paper's queries use, extended with aggregates in the
// heads of recursive common table expressions.
package ast

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/rasql/rasql-go/internal/types"
)

// Statement is any top-level statement.
type Statement interface {
	stmt()
	String() string
}

// CreateView is `CREATE VIEW name(cols...) AS select`.
type CreateView struct {
	Name    string
	Columns []string
	Query   *Select
}

func (*CreateView) stmt() {}

// String renders the statement.
func (s *CreateView) String() string {
	return fmt.Sprintf("CREATE VIEW %s(%s) AS %s", s.Name, strings.Join(s.Columns, ", "), s.Query)
}

// With is `WITH [recursive] v1(...) AS q1, ... body`.
type With struct {
	Views []*CTE
	Body  *Select
}

func (*With) stmt() {}

// String renders the statement.
func (s *With) String() string {
	parts := make([]string, len(s.Views))
	for i, v := range s.Views {
		parts[i] = v.String()
	}
	return fmt.Sprintf("WITH %s %s", strings.Join(parts, ", "), s.Body)
}

// CTE is one common table expression: a view head plus a union of branches.
type CTE struct {
	// Recursive is true when the `recursive` keyword was given.
	Recursive bool
	Name      string
	// Head declares the view columns; a column may carry an aggregate
	// (RaSQL's `max() AS Days` form).
	Head []HeadCol
	// Branches are the UNIONed sub-queries. The analyzer classifies each
	// as a base case or a recursive case.
	Branches []*Select
}

// String renders the CTE.
func (c *CTE) String() string {
	cols := make([]string, len(c.Head))
	for i, h := range c.Head {
		cols[i] = h.String()
	}
	qs := make([]string, len(c.Branches))
	for i, b := range c.Branches {
		qs[i] = "(" + b.String() + ")"
	}
	kw := ""
	if c.Recursive {
		kw = "recursive "
	}
	return fmt.Sprintf("%s%s(%s) AS %s", kw, c.Name, strings.Join(cols, ", "), strings.Join(qs, " UNION "))
}

// HeadCol is one declared column of a CTE head.
type HeadCol struct {
	Name string
	// Agg is non-AggNone for RaSQL aggregate heads like `min() AS Cost`.
	Agg types.AggKind
}

// String renders the head column.
func (h HeadCol) String() string {
	if h.Agg != types.AggNone {
		return fmt.Sprintf("%s() AS %s", h.Agg, h.Name)
	}
	return h.Name
}

// Select is a select statement, possibly with UNION branches chained in
// Unions (left-deep).
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	// Unions holds further selects combined with UNION (set semantics) or
	// UNION ALL.
	Unions []UnionPart
}

func (*Select) stmt() {}

// UnionPart is one `UNION [ALL] select` continuation.
type UnionPart struct {
	All    bool
	Select *Select
}

// SelectItem is one output expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
	// Star is true for a bare `*`.
	Star bool
}

// TableRef is one FROM item: a named table/view, or a derived table
// (parenthesized sub-select) with a mandatory alias.
type TableRef struct {
	Name  string
	Alias string
	// Sub is the derived-table query when this FROM item is
	// `(SELECT ...) alias`; Name is empty in that case.
	Sub *Select
}

// Binding returns the name this table is referenced by (alias if present).
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// String renders the select.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteByte('*')
		} else {
			b.WriteString(it.Expr.String())
			if it.Alias != "" {
				b.WriteString(" AS " + it.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			if t.Sub != nil {
				b.WriteString("(" + t.Sub.String() + ")")
			} else {
				b.WriteString(t.Name)
			}
			if t.Alias != "" {
				b.WriteString(" " + t.Alias)
			}
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	for _, u := range s.Unions {
		b.WriteString(" UNION ")
		if u.All {
			b.WriteString("ALL ")
		}
		b.WriteString("(" + u.Select.String() + ")")
	}
	for i, o := range s.OrderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(o.Expr.String())
		if o.Desc {
			b.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// Expr is any expression node.
type Expr interface {
	expr()
	String() string
}

// ColumnRef is a possibly-qualified column reference (`t.C` or `C`).
type ColumnRef struct {
	Table string // empty when unqualified
	Name  string
}

func (*ColumnRef) expr() {}

// String renders the reference.
func (e *ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

func (*Literal) expr() {}

// String renders the literal as the lexer reads it back: a string with its
// quotes doubled, a double in plain decimal notation with a fraction, since
// the lexer takes no exponent.
func (e *Literal) String() string {
	switch e.Value.K {
	case types.KindString:
		return "'" + strings.ReplaceAll(e.Value.S, "'", "''") + "'"
	case types.KindFloat:
		s := strconv.FormatFloat(e.Value.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	return e.Value.String()
}

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// The binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[BinaryOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String names the operator.
func (o BinaryOp) String() string { return opNames[o] }

// Binary is a binary expression.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

func (*Binary) expr() {}

// String renders the expression.
func (e *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// Unary is NOT or numeric negation.
type Unary struct {
	Op string // "NOT" or "-"
	E  Expr
}

func (*Unary) expr() {}

// String renders the expression.
func (e *Unary) String() string { return fmt.Sprintf("%s%s", e.Op, e.E) }

// FuncCall is an aggregate or scalar function call.
type FuncCall struct {
	Name     string
	Agg      types.AggKind // resolved aggregate kind, AggNone for scalars
	Distinct bool
	Star     bool // count(*)
	Args     []Expr
}

func (*FuncCall) expr() {}

// String renders the call.
func (e *FuncCall) String() string {
	var inner string
	switch {
	case e.Star:
		inner = "*"
	default:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		inner = strings.Join(parts, ", ")
		if e.Distinct {
			inner = "distinct " + inner
		}
	}
	return fmt.Sprintf("%s(%s)", e.Name, inner)
}

// Walk visits e and all sub-expressions in pre-order; returning false from
// fn stops descent into a node's children.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Binary:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Unary:
		Walk(x.E, fn)
	case *FuncCall:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	}
}

// HasAggregate reports whether the expression contains an aggregate call.
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && f.Agg != types.AggNone {
			found = true
			return false
		}
		return true
	})
	return found
}
