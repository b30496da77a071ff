package fixpoint

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/types"
	"github.com/rasql/rasql-go/queries"
)

// libraryPrograms are the 17 distinct programs of the queries package
// (ReachStratified is Reach).
var libraryPrograms = map[string]string{
	"SSSP": queries.SSSP, "CC": queries.CC, "CCLabels": queries.CCLabels,
	"CountPaths": queries.CountPaths, "Management": queries.Management, "MLM": queries.MLM,
	"Coalesce": queries.Coalesce, "Party": queries.Party, "CompanyControl": queries.CompanyControl,
	"SG": queries.SG, "Reach": queries.Reach, "APSP": queries.APSP, "TC": queries.TC,
	"Delivery": queries.Delivery, "DeliveryStratified": queries.DeliveryStratified,
	"SSSPStratified": queries.SSSPStratified, "CCStratified": queries.CCStratified,
}

// TestCompiledHeadsMatchEval: a compiled head writes exactly what its
// expressions' Eval returns, bit for bit, over environments of Int, Float,
// String and NULL values — for every rule head of every library program,
// and for synthetic heads that mix column references, literals and
// arithmetic. A head of column references alone compiles to a copy list,
// any other to closures, never both.
func TestCompiledHeadsMatchEval(t *testing.T) {
	type head struct {
		name   string
		exprs  []expr.Expr
		widths []int // the width of each source the head reads
	}
	var heads []head
	cat := paperCatalog()
	for name, src := range libraryPrograms {
		prog := analyzeQ(t, src, cat)
		if prog.Clique == nil {
			t.Fatalf("%s has no recursive clique", name)
		}
		for _, v := range prog.Clique.Views {
			for _, r := range append(v.BaseRules[:len(v.BaseRules):len(v.BaseRules)], v.RecRules...) {
				widths := make([]int, len(r.Sources))
				for i, s := range r.Sources {
					widths[i] = s.Schema.Len()
				}
				heads = append(heads, head{name + "/" + v.Name, r.Head, widths})
			}
		}
	}
	col := func(in, idx int) expr.Expr { return &expr.Col{Input: in, Idx: idx} }
	lit := func(v types.Value) expr.Expr { return &expr.Lit{V: v} }
	bin := func(op ast.BinaryOp, l, r expr.Expr) expr.Expr { return &expr.Bin{Op: op, L: l, R: r} }
	heads = append(heads,
		head{"cols", []expr.Expr{col(1, 2), col(0, 0), col(1, 0)}, []int{2, 3}},
		head{"col+lit", []expr.Expr{col(0, 1), lit(types.Int(7))}, []int{2, 3}},
		head{"lit+bin", []expr.Expr{lit(types.Str("k")), bin(ast.OpAdd, col(0, 0), col(1, 2))}, []int{2, 3}},
		head{"nested", []expr.Expr{
			col(1, 1),
			bin(ast.OpSub, lit(types.Float(1.5)), col(1, 0)),
			bin(ast.OpDiv, bin(ast.OpMul, col(0, 1), lit(types.Int(2))), col(1, 2)),
			bin(ast.OpMod, col(0, 0), col(0, 1)),
		}, []int{2, 3}},
	)

	vals := []types.Value{
		types.Int(0), types.Int(3), types.Int(-2), types.Int(math.MaxInt64),
		types.Float(2.5), types.Float(0), types.Float(math.NaN()),
		types.Str(""), types.Str("a"), types.Null(),
	}
	rng := rand.New(rand.NewSource(1))
	forms := map[bool]int{}
	for _, h := range heads {
		c := compileHead(h.exprs)
		allCols := true
		for _, e := range h.exprs {
			if _, ok := e.(*expr.Col); !ok {
				allCols = false
			}
		}
		forms[allCols]++
		if allCols != (c.copies != nil) || allCols == (c.fns != nil) {
			t.Errorf("%s: copy list %v, closures %v, for a head of column references only: %v", h.name, c.copies != nil, c.fns != nil, allCols)
		}
		env := make(expr.Env, len(h.widths))
		for i, w := range h.widths {
			env[i] = make(types.Row, w)
		}
		row := make(types.Row, len(h.exprs))
		for n := 0; n < 200; n++ {
			for _, r := range env {
				for j := range r {
					r[j] = vals[rng.Intn(len(vals))]
				}
			}
			c.write(row, env)
			for i, e := range h.exprs {
				if want := e.Eval(env); !sameValueBits(row[i], want) {
					t.Fatalf("%s: head column %d (%s) over %v wrote %#v, Eval gives %#v", h.name, i, e, env, row[i], want)
				}
			}
		}
	}
	if forms[true] == 0 || forms[false] == 0 {
		t.Errorf("the heads compile to %d copy lists and %d closure lists; each form needs a case", forms[true], forms[false])
	}
}

// sameValueBits reports whether two values are identical, floats by their
// bits.
func sameValueBits(x, y types.Value) bool {
	return x.K == y.K && x.I == y.I && math.Float64bits(x.F) == math.Float64bits(y.F) && x.S == y.S
}
