package expr

import (
	"testing"
	"testing/quick"

	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/types"
)

func env(rows ...[]types.Value) Env { return Env(rows) }

func TestColEval(t *testing.T) {
	e := env([]types.Value{types.Int(1)}, []types.Value{types.Str("x"), types.Int(9)})
	c := &Col{Input: 1, Idx: 1, Name: "b"}
	if !c.Eval(e).Equal(types.Int(9)) {
		t.Errorf("Col eval = %v", c.Eval(e))
	}
}

func TestBinComparisonsAndArith(t *testing.T) {
	one, two := &Lit{V: types.Int(1)}, &Lit{V: types.Int(2)}
	cases := []struct {
		op   ast.BinaryOp
		want types.Value
	}{
		{ast.OpAdd, types.Int(3)},
		{ast.OpSub, types.Int(-1)},
		{ast.OpMul, types.Int(2)},
		{ast.OpDiv, types.Float(0.5)},
		{ast.OpEq, types.Bool(false)},
		{ast.OpNe, types.Bool(true)},
		{ast.OpLt, types.Bool(true)},
		{ast.OpLe, types.Bool(true)},
		{ast.OpGt, types.Bool(false)},
		{ast.OpGe, types.Bool(false)},
	}
	for _, c := range cases {
		got := (&Bin{Op: c.op, L: one, R: two}).Eval(nil)
		if !got.Equal(c.want) {
			t.Errorf("1 %v 2 = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestBoolOpsUseTruthiness(t *testing.T) {
	tr, fa := &Lit{V: types.Bool(true)}, &Lit{V: types.Bool(false)}
	if !(&Bin{Op: ast.OpAnd, L: tr, R: tr}).Eval(nil).Truthy() {
		t.Error("true AND true")
	}
	if (&Bin{Op: ast.OpAnd, L: tr, R: fa}).Eval(nil).Truthy() {
		t.Error("true AND false")
	}
	if !(&Bin{Op: ast.OpOr, L: fa, R: tr}).Eval(nil).Truthy() {
		t.Error("false OR true")
	}
	if !(&Not{E: fa}).Eval(nil).Truthy() {
		t.Error("NOT false")
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	null := &Lit{V: types.Null()}
	one := &Lit{V: types.Int(1)}
	for _, op := range []ast.BinaryOp{ast.OpEq, ast.OpNe, ast.OpLt, ast.OpGt} {
		if (&Bin{Op: op, L: null, R: one}).Eval(nil).Truthy() {
			t.Errorf("NULL %v 1 should not be truthy", op)
		}
	}
}

func TestNeg(t *testing.T) {
	if got := (&Neg{E: &Lit{V: types.Int(5)}}).Eval(nil); !got.Equal(types.Int(-5)) {
		t.Errorf("neg = %v", got)
	}
}

func TestFoldConstants(t *testing.T) {
	e := &Bin{Op: ast.OpAdd,
		L: &Bin{Op: ast.OpMul, L: &Lit{V: types.Int(2)}, R: &Lit{V: types.Int(3)}},
		R: &Col{Input: 0, Idx: 0, Name: "x"}}
	folded := Fold(e)
	b, ok := folded.(*Bin)
	if !ok {
		t.Fatalf("folded = %T", folded)
	}
	if _, ok := b.L.(*Lit); !ok {
		t.Errorf("left side should fold to literal: %s", b.L)
	}
	if _, ok := b.R.(*Col); !ok {
		t.Errorf("column side must stay: %s", b.R)
	}
	// Fully constant trees fold to a single literal.
	if _, ok := Fold(&Not{E: &Lit{V: types.Bool(false)}}).(*Lit); !ok {
		t.Error("NOT false should fold")
	}
}

// Property: folding never changes evaluation results.
func TestQuickFoldPreservesSemantics(t *testing.T) {
	f := func(a, b int8, x int16) bool {
		e := &Bin{Op: ast.OpAdd,
			L: &Bin{Op: ast.OpMul, L: &Lit{V: types.Int(int64(a))}, R: &Lit{V: types.Int(int64(b))}},
			R: &Col{Input: 0, Idx: 0, Name: "x"}}
		ev := env([]types.Value{types.Int(int64(x))})
		return e.Eval(ev).Equal(Fold(e).Eval(ev))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitConjuncts(t *testing.T) {
	a := &Lit{V: types.Bool(true)}
	b := &Lit{V: types.Bool(false)}
	c := &Lit{V: types.Bool(true)}
	e := &Bin{Op: ast.OpAnd, L: &Bin{Op: ast.OpAnd, L: a, R: b}, R: c}
	if got := SplitConjuncts(e); len(got) != 3 {
		t.Errorf("conjuncts = %d", len(got))
	}
	if got := SplitConjuncts(nil); got != nil {
		t.Error("nil should split to nil")
	}
	or := &Bin{Op: ast.OpOr, L: a, R: b}
	if got := SplitConjuncts(or); len(got) != 1 {
		t.Error("OR must not split")
	}
}

func TestAsEquiJoinNormalizes(t *testing.T) {
	l := &Col{Input: 2, Idx: 1, Name: "b"}
	r := &Col{Input: 0, Idx: 3, Name: "a"}
	ej, ok := AsEquiJoin(&Bin{Op: ast.OpEq, L: l, R: r})
	if !ok || ej.LeftInput != 0 || ej.LeftCol != 3 || ej.RightInput != 2 || ej.RightCol != 1 {
		t.Errorf("equijoin = %+v ok=%v", ej, ok)
	}
	// Same input on both sides is a filter, not a join.
	if _, ok := AsEquiJoin(&Bin{Op: ast.OpEq, L: l, R: &Col{Input: 2, Idx: 0}}); ok {
		t.Error("same-input equality is not an equi-join")
	}
	if _, ok := AsEquiJoin(&Bin{Op: ast.OpLt, L: l, R: r}); ok {
		t.Error("< is not an equi-join")
	}
}

func TestInputsAndIsConst(t *testing.T) {
	e := &Bin{Op: ast.OpAdd, L: &Col{Input: 3, Idx: 0}, R: &Col{Input: 1, Idx: 0}}
	in := Inputs(e)
	if !in[1] || !in[3] || len(in) != 2 {
		t.Errorf("inputs = %v", in)
	}
	if got := MaxInput(e); got != 3 {
		t.Errorf("MaxInput = %d, want 3", got)
	}
	if got := MaxInput(&Lit{V: types.Int(1)}); got != -1 {
		t.Errorf("MaxInput(literal) = %d, want -1", got)
	}
	if IsConst(e) {
		t.Error("column expression is not const")
	}
	if !IsConst(&Lit{V: types.Int(1)}) {
		t.Error("literal is const")
	}
}

func TestInferKind(t *testing.T) {
	schemas := []types.Schema{types.NewSchema(
		types.Col("I", types.KindInt), types.Col("F", types.KindFloat), types.Col("S", types.KindString))}
	i := &Col{Input: 0, Idx: 0}
	f := &Col{Input: 0, Idx: 1}
	s := &Col{Input: 0, Idx: 2}
	cases := []struct {
		e    Expr
		want types.Kind
	}{
		{i, types.KindInt},
		{f, types.KindFloat},
		{&Bin{Op: ast.OpAdd, L: i, R: i}, types.KindInt},
		{&Bin{Op: ast.OpAdd, L: i, R: f}, types.KindFloat},
		{&Bin{Op: ast.OpDiv, L: i, R: i}, types.KindFloat},
		{&Bin{Op: ast.OpAdd, L: s, R: s}, types.KindString},
		{&Bin{Op: ast.OpLt, L: i, R: i}, types.KindBool},
		{&Not{E: i}, types.KindBool},
		{&Neg{E: f}, types.KindFloat},
		{&Lit{V: types.Str("x")}, types.KindString},
	}
	for _, c := range cases {
		if got := InferKind(c.e, schemas); got != c.want {
			t.Errorf("InferKind(%s) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := &Bin{Op: ast.OpAnd,
		L: &Bin{Op: ast.OpGt, L: &Col{Input: 0, Idx: 1, Name: "x"}, R: &Lit{V: types.Int(3)}},
		R: &Not{E: &Lit{V: types.Bool(false)}}}
	if e.String() == "" {
		t.Error("String should render")
	}
}
