// Package expr defines resolved, executable expressions: the analyzer
// rewrites parsed ast expressions into this form, with every column
// reference bound to a (source, column) position. Evaluation runs against
// an environment of one row per FROM source.
package expr

import (
	"fmt"

	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/types"
)

// Env is the evaluation environment: one current row per FROM source.
type Env [][]types.Value

// Expr is a resolved, evaluable expression.
type Expr interface {
	Eval(env Env) types.Value
	String() string
}

// Col is a resolved column reference.
type Col struct {
	// Input is the FROM-source index; Idx the column within that source.
	Input, Idx int
	// Name is kept for display and planning.
	Name string
}

// Eval reads the column from the environment.
func (c *Col) Eval(env Env) types.Value { return env[c.Input][c.Idx] }

// String renders the reference with its resolved position.
func (c *Col) String() string { return fmt.Sprintf("%s#%d.%d", c.Name, c.Input, c.Idx) }

// Lit is a constant.
type Lit struct {
	V types.Value
}

// Eval returns the constant.
func (l *Lit) Eval(Env) types.Value { return l.V }

// String renders the constant.
func (l *Lit) String() string { return l.V.String() }

// Bin is a binary operation.
type Bin struct {
	Op   ast.BinaryOp
	L, R Expr
}

// Eval applies the operator with SQL-ish semantics: comparisons yield
// booleans (NULL operands yield false), AND/OR use truthiness.
func (b *Bin) Eval(env Env) types.Value {
	switch b.Op {
	case ast.OpAnd:
		return types.Bool(b.L.Eval(env).Truthy() && b.R.Eval(env).Truthy())
	case ast.OpOr:
		return types.Bool(b.L.Eval(env).Truthy() || b.R.Eval(env).Truthy())
	}
	l, r := b.L.Eval(env), b.R.Eval(env)
	switch b.Op {
	case ast.OpAdd:
		return l.Add(r)
	case ast.OpSub:
		return l.Sub(r)
	case ast.OpMul:
		return l.Mul(r)
	case ast.OpDiv:
		return l.Div(r)
	case ast.OpMod:
		return l.Mod(r)
	}
	if l.IsNull() || r.IsNull() {
		return types.Bool(false)
	}
	c := l.Compare(r)
	switch b.Op {
	case ast.OpEq:
		return types.Bool(c == 0)
	case ast.OpNe:
		return types.Bool(c != 0)
	case ast.OpLt:
		return types.Bool(c < 0)
	case ast.OpLe:
		return types.Bool(c <= 0)
	case ast.OpGt:
		return types.Bool(c > 0)
	case ast.OpGe:
		return types.Bool(c >= 0)
	}
	return types.Null()
}

// String renders the operation.
func (b *Bin) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }

// Not is boolean negation.
type Not struct {
	E Expr
}

// Eval negates truthiness.
func (n *Not) Eval(env Env) types.Value { return types.Bool(!n.E.Eval(env).Truthy()) }

// String renders the negation.
func (n *Not) String() string { return "NOT " + n.E.String() }

// Neg is numeric negation.
type Neg struct {
	E Expr
}

// Eval returns 0 - E.
func (n *Neg) Eval(env Env) types.Value { return types.Int(0).Sub(n.E.Eval(env)) }

// String renders the negation.
func (n *Neg) String() string { return "-" + n.E.String() }

// Walk visits e and its children in pre-order; returning false stops
// descent into a node's children.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Bin:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Not:
		Walk(x.E, fn)
	case *Neg:
		Walk(x.E, fn)
	}
}

// Inputs returns the set of source indices the expression reads.
func Inputs(e Expr) map[int]bool {
	out := map[int]bool{}
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*Col); ok {
			out[c.Input] = true
		}
		return true
	})
	return out
}

// MaxInput returns the largest source index the expression reads, or -1
// when it reads no column. Unlike Inputs it allocates nothing.
func MaxInput(e Expr) int {
	at := -1
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*Col); ok {
			at = max(at, c.Input)
		}
		return true
	})
	return at
}

// IsConst reports whether the expression reads no columns.
func IsConst(e Expr) bool { return MaxInput(e) < 0 }

// Fold performs constant folding: any subtree with no column references is
// replaced by its value. Part of the paper's "constant evaluation"
// optimizer batch.
func Fold(e Expr) Expr {
	switch x := e.(type) {
	case *Bin:
		l, r := Fold(x.L), Fold(x.R)
		if IsConst(l) && IsConst(r) {
			return &Lit{V: (&Bin{Op: x.Op, L: l, R: r}).Eval(nil)}
		}
		return &Bin{Op: x.Op, L: l, R: r}
	case *Not:
		inner := Fold(x.E)
		if IsConst(inner) {
			return &Lit{V: (&Not{E: inner}).Eval(nil)}
		}
		return &Not{E: inner}
	case *Neg:
		inner := Fold(x.E)
		if IsConst(inner) {
			return &Lit{V: (&Neg{E: inner}).Eval(nil)}
		}
		return &Neg{E: inner}
	default:
		return e
	}
}

// SplitConjuncts flattens a tree of ANDs into a list of conjuncts —
// the analyzer's "filter combination" normal form.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Bin); ok && b.Op == ast.OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// EquiJoin describes a conjunct of the form a.X = b.Y between two distinct
// sources.
type EquiJoin struct {
	LeftInput  int
	LeftCol    int
	RightInput int
	RightCol   int
}

// AsEquiJoin recognizes an equi-join conjunct, normalizing so that
// LeftInput < RightInput.
func AsEquiJoin(e Expr) (EquiJoin, bool) {
	b, ok := e.(*Bin)
	if !ok || b.Op != ast.OpEq {
		return EquiJoin{}, false
	}
	l, lok := b.L.(*Col)
	r, rok := b.R.(*Col)
	if !lok || !rok || l.Input == r.Input {
		return EquiJoin{}, false
	}
	if l.Input < r.Input {
		return EquiJoin{LeftInput: l.Input, LeftCol: l.Idx, RightInput: r.Input, RightCol: r.Idx}, true
	}
	return EquiJoin{LeftInput: r.Input, LeftCol: r.Idx, RightInput: l.Input, RightCol: l.Idx}, true
}

// InferKind infers the result kind of an expression given per-source
// schemas. Arithmetic over two ints yields int except division; anything
// involving a float yields float.
func InferKind(e Expr, schemas []types.Schema) types.Kind {
	switch x := e.(type) {
	case *Col:
		return schemas[x.Input].Columns[x.Idx].Type
	case *Lit:
		return x.V.K
	case *Neg:
		return InferKind(x.E, schemas)
	case *Not:
		return types.KindBool
	case *Bin:
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpMod:
			lk, rk := InferKind(x.L, schemas), InferKind(x.R, schemas)
			if lk == types.KindFloat || rk == types.KindFloat {
				return types.KindFloat
			}
			if lk == types.KindString && rk == types.KindString && x.Op == ast.OpAdd {
				return types.KindString
			}
			return types.KindInt
		case ast.OpDiv:
			return types.KindFloat
		default:
			return types.KindBool
		}
	default:
		return types.KindNull
	}
}
