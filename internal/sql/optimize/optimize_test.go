package optimize

import (
	"slices"
	"testing"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/sql/parser"
	"github.com/rasql/rasql-go/internal/types"
)

func testProgram(t *testing.T, src string) (*analyze.Program, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	nums := relation.New("nums", types.NewSchema(
		types.Col("X", types.KindInt), types.Col("Y", types.KindInt)))
	for i := int64(0); i < 100; i++ {
		nums.Append(types.Row{types.Int(i), types.Int(i % 10)})
	}
	if err := cat.Register(nums); err != nil {
		t.Fatal(err)
	}
	return analyzeScript(t, src, cat), cat
}

// analyzeScript analyzes a script's last statement against cat, after
// registering the CREATE VIEW statements before it.
func analyzeScript(t *testing.T, src string, cat *catalog.Catalog) *analyze.Program {
	t.Helper()
	stmts, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts[:len(stmts)-1] {
		cv := s.(*ast.CreateView)
		if err := cat.PutView(&catalog.ViewDef{Name: cv.Name, Columns: cv.Columns, Query: cv.Query}); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := analyze.Statement(stmts[len(stmts)-1], cat)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func evalFinal(t *testing.T, prog *analyze.Program) *relation.Relation {
	t.Helper()
	out, err := exec.Query(prog.Final, exec.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPushdownIntoDerivedTable(t *testing.T) {
	src := `SELECT d.X FROM (SELECT X, Y + 1 AS Y1 FROM nums) d WHERE d.Y1 = 3 AND d.X < 50`
	prog, _ := testProgram(t, src)
	before := evalFinal(t, prog)

	Program(prog)
	// Both conjuncts reference only the derived table; they should have
	// moved inside it.
	if len(prog.Final.Conjuncts) != 0 {
		t.Errorf("conjuncts left on the outer query: %d", len(prog.Final.Conjuncts))
	}
	inner := prog.Final.Sources[0].ViewQuery
	if len(inner.Conjuncts) != 2 {
		t.Errorf("derived table should have received 2 conjuncts, has %d", len(inner.Conjuncts))
	}
	after := evalFinal(t, prog)
	if !sameBag(before, after) {
		t.Errorf("pushdown changed results:\n%v\nvs\n%v", before.Sort(), after.Sort())
	}
	if before.Len() != 5 { // Y1=3 → Y=2 → 10 values, X<50 → 5
		t.Errorf("expected 5 rows, got %d", before.Len())
	}
}

func TestNoPushIntoGroupedDerivedTable(t *testing.T) {
	src := `SELECT d.Y FROM (SELECT Y, count(*) AS N FROM nums GROUP BY Y) d WHERE d.N > 5`
	prog, _ := testProgram(t, src)
	before := evalFinal(t, prog)
	Program(prog)
	if len(prog.Final.Conjuncts) != 1 {
		t.Error("filters over grouped views must stay outside (they filter aggregates)")
	}
	after := evalFinal(t, prog)
	if !sameBag(before, after) {
		t.Error("optimization changed grouped results")
	}
}

func TestNoPushIntoNamedView(t *testing.T) {
	src := `
		CREATE VIEW v(X, Y) AS (SELECT X, Y FROM nums);
		SELECT a.X FROM v a, v b WHERE a.X = 1 AND a.X = b.X`
	prog, _ := testProgram(t, src)
	before := evalFinal(t, prog)
	Program(prog)
	// The single-source conjunct must not be pushed into the shared view.
	if len(prog.Final.Conjuncts) != 2 {
		t.Errorf("named-view conjuncts should stay, have %d", len(prog.Final.Conjuncts))
	}
	after := evalFinal(t, prog)
	if !sameBag(before, after) {
		t.Error("optimization changed named-view results")
	}
}

func TestTrivialConjunctElimination(t *testing.T) {
	src := `SELECT X FROM nums WHERE 1 = 1 AND X < 3`
	prog, _ := testProgram(t, src)
	Program(prog)
	if len(prog.Final.Conjuncts) != 1 {
		t.Errorf("constant-true conjunct should be dropped, have %d", len(prog.Final.Conjuncts))
	}
	if evalFinal(t, prog).Len() != 3 {
		t.Error("results changed")
	}
}

func TestOptimizeRecursiveProgram(t *testing.T) {
	cat := catalog.New()
	edge := relation.New("edge", types.NewSchema(
		types.Col("Src", types.KindInt), types.Col("Dst", types.KindInt)))
	for _, p := range [][2]int64{{1, 2}, {2, 3}, {3, 4}} {
		edge.Append(types.Row{types.Int(p[0]), types.Int(p[1])})
	}
	if err := cat.Register(edge); err != nil {
		t.Fatal(err)
	}
	prog := analyzeScript(t, `
		WITH recursive reach (Dst) AS
		    (SELECT 1) UNION
		    (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src AND 2 = 2)
		SELECT Dst FROM reach`, cat)
	Program(prog)
	rec := prog.Clique.Views[0].RecRules[0]
	if len(rec.Conjuncts) != 1 {
		t.Errorf("rule should keep only the join conjunct, has %d", len(rec.Conjuncts))
	}
}

// sameBag reports whether a and b hold the same multiset of rows.
func sameBag(a, b *relation.Relation) bool {
	return slices.EqualFunc(a.Clone().Sort().Rows, b.Clone().Sort().Rows, func(x, y types.Row) bool { return x.Compare(y) == 0 })
}
