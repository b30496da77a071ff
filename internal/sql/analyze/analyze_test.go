package analyze

import (
	"strings"
	"testing"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/parser"
	"github.com/rasql/rasql-go/internal/types"
)

// testCatalog registers the base tables used by the paper's queries.
func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	add := func(name string, cols ...types.Column) {
		if err := cat.Register(relation.New(name, types.NewSchema(cols...))); err != nil {
			panic(err)
		}
	}
	add("edge", types.Col("Src", types.KindInt), types.Col("Dst", types.KindInt), types.Col("Cost", types.KindFloat))
	add("basic", types.Col("Part", types.KindInt), types.Col("Days", types.KindInt))
	add("assbl", types.Col("Part", types.KindInt), types.Col("Spart", types.KindInt))
	add("report", types.Col("Emp", types.KindInt), types.Col("Mgr", types.KindInt))
	add("sales", types.Col("M", types.KindInt), types.Col("P", types.KindFloat))
	add("sponsor", types.Col("M1", types.KindInt), types.Col("M2", types.KindInt))
	add("inter", types.Col("S", types.KindInt), types.Col("E", types.KindInt))
	add("organizer", types.Col("OrgName", types.KindString))
	add("friend", types.Col("Pname", types.KindString), types.Col("Fname", types.KindString))
	add("shares", types.Col("By", types.KindString), types.Col("Of", types.KindString), types.Col("Percent", types.KindInt))
	add("rel", types.Col("Parent", types.KindInt), types.Col("Child", types.KindInt))
	return cat
}

func analyzeSrc(t *testing.T, src string) *Program {
	t.Helper()
	stmts, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := statements(stmts, testCatalog())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return p
}

func TestAnalyzeSSSP(t *testing.T) {
	p := analyzeSrc(t, `
		WITH recursive path (Dst, min() AS Cost) AS
		    (SELECT 1, 0) UNION
		    (SELECT edge.Dst, path.Cost + edge.Cost
		     FROM path, edge WHERE path.Dst = edge.Src)
		SELECT Dst, Cost FROM path`)
	if p.Clique == nil || len(p.Clique.Views) != 1 {
		t.Fatal("expected one recursive view")
	}
	v := p.Clique.Views[0]
	if v.Agg != types.AggMin || v.AggIdx != 1 {
		t.Errorf("agg = %v@%d", v.Agg, v.AggIdx)
	}
	if len(v.GroupIdx) != 1 || v.GroupIdx[0] != 0 {
		t.Errorf("group idx = %v", v.GroupIdx)
	}
	if len(v.BaseRules) != 1 || len(v.RecRules) != 1 {
		t.Fatalf("rules = %d base, %d rec", len(v.BaseRules), len(v.RecRules))
	}
	if !v.BaseRules[0].NoFrom {
		t.Error("base rule should be a literal select")
	}
	// The Cost column must widen to double (base gives int 0, recursion
	// adds edge.Cost double).
	if v.Schema.Columns[1].Type != types.KindFloat {
		t.Errorf("Cost type = %v, want double", v.Schema.Columns[1].Type)
	}
	if v.Schema.Columns[0].Type != types.KindInt {
		t.Errorf("Dst type = %v, want int", v.Schema.Columns[0].Type)
	}
	rec := v.RecRules[0]
	if len(rec.RecSources) != 1 || rec.RecSources[0] != 0 {
		t.Errorf("rec sources = %v", rec.RecSources)
	}
	if len(rec.Conjuncts) != 1 {
		t.Errorf("conjuncts = %d", len(rec.Conjuncts))
	}
}

func TestAnalyzeMutualRecursionClique(t *testing.T) {
	p := analyzeSrc(t, `
		WITH recursive cshares(ByCom, OfCom, sum() AS Tot) AS
		    (SELECT By, Of, Percent FROM shares) UNION
		    (SELECT control.Com1, cshares.OfCom, cshares.Tot
		     FROM control, cshares WHERE control.Com2 = cshares.ByCom),
		recursive control(Com1, Com2) AS
		    (SELECT ByCom, OfCom FROM cshares WHERE Tot > 50)
		SELECT ByCom, OfCom, Tot FROM cshares`)
	if len(p.Clique.Views) != 2 {
		t.Fatalf("clique size = %d", len(p.Clique.Views))
	}
	cs, ctl := p.Clique.Views[0], p.Clique.Views[1]
	if cs.Agg != types.AggSum || ctl.Agg != types.AggNone {
		t.Errorf("aggs = %v, %v", cs.Agg, ctl.Agg)
	}
	// control has no base rule; its only rule reads cshares.
	if len(ctl.BaseRules) != 0 || len(ctl.RecRules) != 1 {
		t.Errorf("control rules = %d base, %d rec", len(ctl.BaseRules), len(ctl.RecRules))
	}
	// Types flow from shares through the mutual recursion.
	if ctl.Schema.Columns[0].Type != types.KindString {
		t.Errorf("control.Com1 type = %v", ctl.Schema.Columns[0].Type)
	}
	// The cshares recursive rule has two recursive sources? No — control
	// and cshares are both recursive, so both sources are recursive.
	if len(cs.RecRules[0].RecSources) != 2 {
		t.Errorf("cshares rec rule rec sources = %v", cs.RecRules[0].RecSources)
	}
}

func TestAnalyzeNonRecursiveCTETreatedAsView(t *testing.T) {
	p := analyzeSrc(t, `
		WITH helper(X) AS (SELECT Src FROM edge),
		recursive tc (Src, Dst) AS
		    (SELECT Src, Dst FROM edge) UNION
		    (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
		SELECT Src FROM tc`)
	if len(p.Clique.Views) != 1 || len(p.Clique.NonRec) != 1 {
		t.Fatalf("views = %d recursive, %d plain", len(p.Clique.Views), len(p.Clique.NonRec))
	}
	if p.Clique.NonRec[0].Name != "helper" {
		t.Errorf("plain view = %q", p.Clique.NonRec[0].Name)
	}
}

func TestAnalyzeCreateViewThenWith(t *testing.T) {
	p := analyzeSrc(t, `
		CREATE VIEW lstart(T) AS
		    (SELECT a.S FROM inter a, inter b
		     WHERE a.S <= b.E GROUP BY a.S HAVING a.S = min(b.S));
		WITH recursive coal (S, max() AS E) AS
		    (SELECT lstart.T, inter.E FROM lstart, inter WHERE lstart.T = inter.S) UNION
		    (SELECT coal.S, inter.E FROM coal, inter
		     WHERE coal.S <= inter.S AND inter.S <= coal.E)
		SELECT S, E FROM coal`)
	v := p.Clique.Views[0]
	if len(v.BaseRules) != 1 {
		t.Fatal("coal should have one base rule")
	}
	base := v.BaseRules[0]
	if base.Sources[0].Kind != SourceView || base.Sources[0].ViewName != "lstart" {
		t.Errorf("base source = %+v", base.Sources[0])
	}
	vq := base.Sources[0].ViewQuery
	if !vq.Grouped || len(vq.AggCalls) != 1 || vq.AggCalls[0].Kind != types.AggMin {
		t.Errorf("lstart query = %+v", vq)
	}
	if vq.Having == nil {
		t.Error("lstart HAVING lost")
	}
	if vq.Schema.Columns[0].Name != "T" {
		t.Errorf("view column renamed wrong: %v", vq.Schema)
	}
}

func TestAnalyzeFinalGroupedQuery(t *testing.T) {
	p := analyzeSrc(t, `
		WITH recursive waitfor(Part, Days) AS
		    (SELECT Part, Days FROM basic) UNION
		    (SELECT assbl.Part, waitfor.Days FROM assbl, waitfor
		     WHERE assbl.Spart = waitfor.Part)
		SELECT Part, max(Days) FROM waitfor GROUP BY Part`)
	f := p.Final
	if !f.Grouped || len(f.GroupExprs) != 1 || len(f.AggCalls) != 1 {
		t.Fatalf("final = %+v", f)
	}
	if f.AggCalls[0].Kind != types.AggMax {
		t.Errorf("agg = %v", f.AggCalls[0].Kind)
	}
	if f.Sources[0].Kind != SourceRec {
		t.Error("final should read the recursive view")
	}
	if f.Schema.Columns[1].Type != types.KindInt {
		t.Errorf("max(Days) type = %v", f.Schema.Columns[1].Type)
	}
}

func TestAnalyzeCountDistinct(t *testing.T) {
	p := analyzeSrc(t, `
		WITH recursive cc (Src, min() AS CmpId) AS
		    (SELECT Src, Src FROM edge) UNION
		    (SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = edge.Src)
		SELECT count(distinct cc.CmpId) FROM cc`)
	f := p.Final
	if !f.Grouped || len(f.GroupExprs) != 0 {
		t.Fatal("global aggregate should be grouped with no keys")
	}
	if !f.AggCalls[0].Distinct || f.AggCalls[0].Kind != types.AggCount {
		t.Errorf("agg call = %+v", f.AggCalls[0])
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown table", `SELECT X FROM nope`, "unknown table"},
		{"unknown column", `SELECT Nope FROM edge`, "unknown column"},
		{"ambiguous column", `SELECT Src FROM edge, edge e2`, "ambiguous"},
		{"duplicate binding", `SELECT 1 FROM edge, edge`, "duplicate table binding"},
		{"agg in where", `SELECT Src FROM edge WHERE max(Dst) > 1`, "not allowed in WHERE"},
		{"bare col with agg", `SELECT Src, max(Dst) FROM edge`, "GROUP BY"},
		{"avg in recursion", `WITH recursive v(X, avg() AS A) AS (SELECT Src, Cost FROM edge) UNION (SELECT v.X, v.A FROM v, edge WHERE v.X = edge.Src) SELECT X FROM v`, "not monotonic"},
		{"two agg heads", `WITH recursive v(X, min() AS A, max() AS B) AS (SELECT Src, Cost, Cost FROM edge) UNION (SELECT v.X, v.A, v.B FROM v, edge WHERE v.X = edge.Src) SELECT X FROM v`, "at most one aggregate"},
		{"head arity", `WITH recursive v(X, Y) AS (SELECT Src FROM edge) UNION (SELECT v.X, v.Y FROM v, edge WHERE v.X = edge.Src) SELECT X FROM v`, "head declares"},
		{"group by in branch", `WITH recursive v(X) AS (SELECT Src FROM edge GROUP BY Src) UNION (SELECT v.X FROM v, edge WHERE v.X = edge.Src) SELECT X FROM v`, "implicit group-by"},
		{"agg in branch select", `WITH recursive v(X, C) AS (SELECT Src, min(Cost) FROM edge) UNION (SELECT v.X, v.C FROM v, edge WHERE v.X = edge.Src) SELECT X FROM v`, "declared in the view head"},
		{"no base case", `WITH recursive v(X) AS (SELECT v.X FROM v, edge WHERE v.X = edge.Src) SELECT X FROM v`, "no base case"},
		{"union arity", `(SELECT Src FROM edge) UNION (SELECT Src, Dst FROM edge)`, "columns"},
		{"order by unknown", `SELECT Src FROM edge ORDER BY Nope`, "ORDER BY"},
		{"order by ordinal range", `SELECT Src FROM edge ORDER BY 2`, "out of range"},
	}
	for _, c := range cases {
		stmts, err := parser.Parse(c.src)
		if err != nil {
			t.Errorf("%s: parse failed: %v", c.name, err)
			continue
		}
		_, err = statements(stmts, testCatalog())
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestAnalyzeStarExpansion(t *testing.T) {
	p := analyzeSrc(t, `SELECT * FROM basic`)
	if p.Final.Schema.Len() != 2 || p.Final.Schema.Columns[0].Name != "Part" {
		t.Errorf("star schema = %v", p.Final.Schema)
	}
}

func TestAnalyzeConstantFolding(t *testing.T) {
	p := analyzeSrc(t, `SELECT Src FROM edge WHERE Dst > 1 + 2 * 3`)
	if len(p.Final.Conjuncts) != 1 {
		t.Fatalf("conjuncts = %d", len(p.Final.Conjuncts))
	}
	s := p.Final.Conjuncts[0].String()
	if !strings.Contains(s, "7") || strings.Contains(s, "2 * 3") {
		t.Errorf("constant not folded: %s", s)
	}
}

func TestAnalyzeFilterCombination(t *testing.T) {
	p := analyzeSrc(t, `SELECT Src FROM edge WHERE Src = 1 AND Dst = 2 AND Cost > 0`)
	if len(p.Final.Conjuncts) != 3 {
		t.Errorf("AND chain should split into 3 conjuncts, got %d", len(p.Final.Conjuncts))
	}
}

func TestAnalyzePartyAttendance(t *testing.T) {
	p := analyzeSrc(t, `
		WITH recursive attend(Person) AS
		    (SELECT OrgName FROM organizer) UNION
		    (SELECT Name FROM cntfriends WHERE Ncount >= 3),
		recursive cntfriends(Name, count() AS Ncount) AS
		    (SELECT friend.FName, friend.Pname FROM attend, friend
		     WHERE attend.Person = friend.Pname)
		SELECT Person FROM attend`)
	att, cnt := p.Clique.Views[0], p.Clique.Views[1]
	if att.IsAgg() || !cnt.IsAgg() {
		t.Error("agg classification wrong")
	}
	// cntfriends' Ncount column counts strings: its head type should be
	// int (counts), not string.
	if cnt.Schema.Columns[1].Type != types.KindInt {
		t.Errorf("Ncount type = %v", cnt.Schema.Columns[1].Type)
	}
	if att.Schema.Columns[0].Type != types.KindString {
		t.Errorf("Person type = %v", att.Schema.Columns[0].Type)
	}
}

func TestAnalyzeViewCycleDetected(t *testing.T) {
	cat := testCatalog()
	stmts, err := parser.Parse(`
		CREATE VIEW v1(X) AS (SELECT X FROM v2);
		CREATE VIEW v2(X) AS (SELECT X FROM v1);
		SELECT X FROM v1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := statements(stmts, cat); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("want cyclic view error, got %v", err)
	}
}

// statements analyzes a parsed script as the engine's script reader does,
// but against cat itself: CREATE VIEW replaces into it, and the one query
// statement becomes the Program.
func statements(stmts []ast.Statement, cat *catalog.Catalog) (*Program, error) {
	var last ast.Statement
	for _, s := range stmts {
		if cv, ok := s.(*ast.CreateView); ok {
			if err := cat.PutView(&catalog.ViewDef{
				Name: cv.Name, Columns: cv.Columns, Query: cv.Query,
			}); err != nil {
				return nil, err
			}
			continue
		}
		if last != nil {
			return nil, errf("", "script has more than one query statement")
		}
		last = s
	}
	if last == nil {
		return nil, errf("", "script has no query statement")
	}
	return Statement(last, cat)
}
