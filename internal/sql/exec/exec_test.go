package exec

import (
	"slices"
	"testing"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/parser"
	"github.com/rasql/rasql-go/internal/types"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	users := relation.New("users", types.NewSchema(
		types.Col("Id", types.KindInt), types.Col("Name", types.KindString),
		types.Col("Age", types.KindInt)))
	for _, u := range []struct {
		id   int64
		name string
		age  int64
	}{{1, "ann", 30}, {2, "bob", 25}, {3, "cat", 30}, {4, "dan", 40}} {
		users.Append(types.Row{types.Int(u.id), types.Str(u.name), types.Int(u.age)})
	}
	orders := relation.New("orders", types.NewSchema(
		types.Col("UserId", types.KindInt), types.Col("Amount", types.KindFloat)))
	for _, o := range [][2]float64{{1, 10}, {1, 20}, {2, 5}, {3, 7}, {9, 99}} {
		orders.Append(types.Row{types.Int(int64(o[0])), types.Float(o[1])})
	}
	if err := cat.Register(users); err != nil {
		panic(err)
	}
	if err := cat.Register(orders); err != nil {
		panic(err)
	}
	return cat
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

func run(t *testing.T, src string) *relation.Relation {
	t.Helper()
	prog := analyzeScript(t, src, testCatalog())
	out, err := Query(prog.Final, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSelectFilterProject(t *testing.T) {
	out := run(t, `SELECT Name FROM users WHERE Age > 26`)
	if out.Len() != 3 {
		t.Errorf("rows = %d, want 3 (ann, cat, dan)", out.Len())
	}
}

func TestHashJoin(t *testing.T) {
	out := run(t, `SELECT users.Name, orders.Amount FROM users, orders WHERE users.Id = orders.UserId`)
	if out.Len() != 4 {
		t.Errorf("join rows = %d, want 4", out.Len())
	}
}

func TestThetaJoinFallsBackToNestedLoop(t *testing.T) {
	out := run(t, `SELECT a.Id, b.Id FROM users a, users b WHERE a.Age < b.Age`)
	// pairs with strictly smaller age: bob< everyone(3), ann<dan, cat<dan → 5
	if out.Len() != 5 {
		t.Errorf("theta join rows = %d, want 5", out.Len())
	}
}

func TestCrossJoin(t *testing.T) {
	out := run(t, `SELECT a.Id, b.UserId FROM users a, orders b`)
	if out.Len() != 20 {
		t.Errorf("cross join rows = %d, want 20", out.Len())
	}
}

func TestGroupByHaving(t *testing.T) {
	out := run(t, `SELECT Age, count(*) FROM users GROUP BY Age HAVING count(*) > 1`)
	if out.Len() != 1 || !slices.EqualFunc(out.Rows[0], types.Row{types.Int(30), types.Int(2)}, types.Value.Equal) {
		t.Errorf("grouped = %v", out)
	}
}

func TestAggregates(t *testing.T) {
	out := run(t, `SELECT min(Age), max(Age), sum(Age), count(*), avg(Age) FROM users`)
	want := types.Row{types.Int(25), types.Int(40), types.Int(125), types.Int(4), types.Float(31.25)}
	if out.Len() != 1 || !slices.EqualFunc(out.Rows[0], want, types.Value.Equal) {
		t.Errorf("aggregates = %v, want %v", out.Rows[0], want)
	}
}

func TestCountDistinct(t *testing.T) {
	out := run(t, `SELECT count(distinct Age) FROM users`)
	if !out.Rows[0][0].Equal(types.Int(3)) {
		t.Errorf("count distinct = %v", out.Rows[0][0])
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	out := run(t, `SELECT count(*), sum(Age) FROM users WHERE Age > 100`)
	if out.Len() != 1 {
		t.Fatalf("global aggregate must yield one row, got %d", out.Len())
	}
	if !out.Rows[0][0].Equal(types.Int(0)) || !out.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", out.Rows[0])
	}
}

// TestGroupingMergeRefusesSums: Merge adds no sum slot and no avg count,
// so merging a query with sum or avg panics instead of answering wrong.
func TestGroupingMergeRefusesSums(t *testing.T) {
	for _, src := range []string{
		`SELECT Age, sum(Id) FROM users GROUP BY Age`,
		`SELECT avg(Id) FROM users`,
	} {
		q := analyzeScript(t, src, testCatalog()).Final
		var g Grouping
		g.Reset(q)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Merge did not panic", src)
				}
			}()
			g.Merge(nil, nil)
		}()
	}
}

func TestDistinct(t *testing.T) {
	out := run(t, `SELECT distinct Age FROM users`)
	if out.Len() != 3 {
		t.Errorf("distinct rows = %d", out.Len())
	}
}

func TestOrderByLimit(t *testing.T) {
	out := run(t, `SELECT Name, Age FROM users ORDER BY Age DESC, Name LIMIT 2`)
	if out.Len() != 2 || out.Rows[0][0].S != "dan" || out.Rows[1][0].S != "ann" {
		t.Errorf("ordered = %v", out)
	}
}

func TestUnionDedupsAndUnionAllKeeps(t *testing.T) {
	out := run(t, `(SELECT Age FROM users) UNION (SELECT Age FROM users)`)
	if out.Len() != 3 {
		t.Errorf("UNION rows = %d, want 3 distinct ages", out.Len())
	}
	out = run(t, `(SELECT Age FROM users) UNION ALL (SELECT Age FROM users)`)
	if out.Len() != 8 {
		t.Errorf("UNION ALL rows = %d, want 8", out.Len())
	}
}

func TestLiteralSelect(t *testing.T) {
	out := run(t, `SELECT 1, 'x', 2.5`)
	if out.Len() != 1 || !slices.EqualFunc(out.Rows[0], types.Row{types.Int(1), types.Str("x"), types.Float(2.5)}, types.Value.Equal) {
		t.Errorf("literal select = %v", out)
	}
}

func TestViewMaterializationCached(t *testing.T) {
	cat := testCatalog()
	prog := analyzeScript(t, `
		CREATE VIEW grownups(N) AS (SELECT Name FROM users WHERE Age > 26);
		SELECT a.N FROM grownups a, grownups b WHERE a.N = b.N`, cat)
	ctx := NewContext()
	out, err := Query(prog.Final, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("self-joined view rows = %d", out.Len())
	}
	if len(ctx.viewCache) != 1 {
		t.Errorf("view should be materialized once, cache = %d", len(ctx.viewCache))
	}
}

func TestMissingRecResultErrors(t *testing.T) {
	cat := testCatalog()
	// Construct a query over a recursive view but evaluate the final
	// query without binding fixpoint results.
	prog := analyzeScript(t, `
		WITH recursive v (Id) AS
		    (SELECT Id FROM users) UNION
		    (SELECT users.Id FROM v, users WHERE v.Id = users.Id)
		SELECT Id FROM v`, cat)
	if _, err := Query(prog.Final, NewContext()); err == nil {
		t.Error("final query over unbound recursive view must error")
	}
}

func TestExpressionArithmetic(t *testing.T) {
	out := run(t, `SELECT Amount * 2 + 1 FROM orders WHERE UserId = 2`)
	if out.Len() != 1 || !out.Rows[0][0].Equal(types.Float(11)) {
		t.Errorf("arith = %v", out)
	}
}

func TestNotAndOr(t *testing.T) {
	out := run(t, `SELECT Name FROM users WHERE NOT (Age = 30) AND (Id = 2 OR Id = 4)`)
	if out.Len() != 2 {
		t.Errorf("rows = %d, want bob and dan", out.Len())
	}
}

func TestJoinOnSyntax(t *testing.T) {
	out := run(t, `SELECT users.Name, orders.Amount
		FROM users JOIN orders ON users.Id = orders.UserId
		WHERE orders.Amount > 6`)
	if out.Len() != 3 {
		t.Errorf("JOIN ON rows = %d, want 3", out.Len())
	}
	out = run(t, `SELECT users.Name FROM users INNER JOIN orders ON users.Id = orders.UserId`)
	if out.Len() != 4 {
		t.Errorf("INNER JOIN rows = %d, want 4", out.Len())
	}
}

func TestBetweenAndIn(t *testing.T) {
	out := run(t, `SELECT Name FROM users WHERE Age BETWEEN 26 AND 35`)
	if out.Len() != 2 { // ann, cat
		t.Errorf("BETWEEN rows = %d, want 2", out.Len())
	}
	out = run(t, `SELECT Name FROM users WHERE Age NOT BETWEEN 26 AND 35`)
	if out.Len() != 2 { // bob, dan
		t.Errorf("NOT BETWEEN rows = %d, want 2", out.Len())
	}
	out = run(t, `SELECT Name FROM users WHERE Id IN (1, 3, 99)`)
	if out.Len() != 2 {
		t.Errorf("IN rows = %d, want 2", out.Len())
	}
	out = run(t, `SELECT Name FROM users WHERE Id NOT IN (1, 3)`)
	if out.Len() != 2 {
		t.Errorf("NOT IN rows = %d, want 2", out.Len())
	}
}

func TestDerivedTable(t *testing.T) {
	out := run(t, `SELECT g.Age, g.N FROM
		(SELECT Age, count(*) N FROM users GROUP BY Age) g
		WHERE g.N > 1`)
	if out.Len() != 1 || !slices.EqualFunc(out.Rows[0], types.Row{types.Int(30), types.Int(2)}, types.Value.Equal) {
		t.Errorf("derived table rows = %v", out)
	}
	// Derived table joined with a base table.
	out = run(t, `SELECT users.Name FROM users
		JOIN (SELECT UserId, sum(Amount) Total FROM orders GROUP BY UserId) t
		ON users.Id = t.UserId
		WHERE t.Total > 9`)
	if out.Len() != 1 || out.Rows[0][0].S != "ann" {
		t.Errorf("derived join = %v", out)
	}
}
