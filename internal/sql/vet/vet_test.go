package vet

import (
	"strings"
	"testing"

	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/parser"
	"github.com/rasql/rasql-go/internal/types"
	"github.com/rasql/rasql-go/queries"
)

// paperCatalog builds a catalog holding every base table the paper queries
// reference (schemas only; vet never reads rows).
func paperCatalog() *catalog.Catalog {
	cat := catalog.New()
	for _, r := range []*relation.Relation{
		relation.New("edge", gen.EdgeSchema()),
		relation.New("report", types.NewSchema(
			types.Col("Emp", types.KindInt), types.Col("Mgr", types.KindInt))),
		relation.New("sales", types.NewSchema(
			types.Col("M", types.KindInt), types.Col("P", types.KindFloat))),
		relation.New("sponsor", types.NewSchema(
			types.Col("M1", types.KindInt), types.Col("M2", types.KindInt))),
		relation.New("inter", types.NewSchema(
			types.Col("S", types.KindInt), types.Col("E", types.KindInt))),
		relation.New("organizer", types.NewSchema(
			types.Col("OrgName", types.KindString))),
		relation.New("friend", types.NewSchema(
			types.Col("Pname", types.KindString), types.Col("Fname", types.KindString))),
		relation.New("shares", types.NewSchema(
			types.Col("By", types.KindString), types.Col("Of", types.KindString),
			types.Col("Percent", types.KindInt))),
		relation.New("rel", types.NewSchema(
			types.Col("Parent", types.KindInt), types.Col("Child", types.KindInt))),
		relation.New("basic", types.NewSchema(
			types.Col("Part", types.KindInt), types.Col("Days", types.KindInt))),
		relation.New("assbl", types.NewSchema(
			types.Col("Part", types.KindInt), types.Col("Spart", types.KindInt))),
	} {
		if err := cat.Register(r); err != nil {
			panic(err)
		}
	}
	return cat
}

func vetQuery(t *testing.T, src string) *Report {
	t.Helper()
	stmts, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cat := paperCatalog()
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
	return Analyze(prog)
}

func hasCode(r *Report, code string) bool {
	for _, d := range r.Diagnostics {
		if d.Code == code {
			return true
		}
	}
	return false
}

// TestPaperQueryVerdicts pins the static PreM verdict of every paper
// query: the endo-min/max queries and the positive-contribution
// count/sum queries certify without executing anything; MLM's base
// contribution has unknown sign and the mutually recursive examples fall
// outside the recognized patterns; set-semantics queries have no aggregate
// to certify.
func TestPaperQueryVerdicts(t *testing.T) {
	cases := []struct {
		name, src string
		want      Verdict
	}{
		{"SSSP", queries.SSSP, VerdictCertified},
		{"CC", queries.CC, VerdictCertified},
		{"CCLabels", queries.CCLabels, VerdictCertified},
		{"APSP", queries.APSP, VerdictCertified},
		{"Delivery", queries.Delivery, VerdictCertified},
		{"Coalesce", queries.Coalesce, VerdictCertified},
		{"CountPaths", queries.CountPaths, VerdictCertified},
		{"Management", queries.Management, VerdictCertified},
		{"MLM", queries.MLM, VerdictInconclusive},
		{"Party", queries.Party, VerdictInconclusive},
		{"CompanyControl", queries.CompanyControl, VerdictInconclusive},
		{"TC", queries.TC, VerdictNotApplicable},
		{"Reach", queries.Reach, VerdictNotApplicable},
		{"SG", queries.SG, VerdictNotApplicable},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := vetQuery(t, c.src)
			if got := rep.Verdict(); got != c.want {
				t.Fatalf("verdict = %v, want %v\n%s", got, c.want, rep)
			}
			if c.want == VerdictCertified && !hasCode(rep, "RV001") {
				t.Errorf("certified without an RV001 diagnostic\n%s", rep)
			}
			if c.want == VerdictCertified && rep.HasErrors() {
				t.Errorf("certified query has error diagnostics\n%s", rep)
			}
			if c.want == VerdictInconclusive && !hasCode(rep, "RV003") {
				t.Errorf("inconclusive without an RV003 diagnostic\n%s", rep)
			}
		})
	}
}

// TestRefutedPatterns seeds the three counter-patterns — an
// order-reversing head, a negatively scaled head, and an anti-monotone
// filter — and asserts each is refuted with RV002.
func TestRefutedPatterns(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"order-reversing head", `
WITH recursive path (Dst, min() AS Cost) AS
    (SELECT 1, 0) UNION
    (SELECT edge.Dst, edge.Cost - path.Cost
     FROM path, edge
     WHERE path.Dst = edge.Src)
SELECT Dst, Cost FROM path`},
		{"negative scale head", `
WITH recursive waitfor(Part, max() as Days) AS
    (SELECT Part, Days FROM basic) UNION
    (SELECT assbl.Part, waitfor.Days * -1
     FROM assbl, waitfor
     WHERE assbl.Spart = waitfor.Part)
SELECT Part, Days FROM waitfor`},
		{"anti-monotone filter", `
WITH recursive path (Dst, min() AS Cost) AS
    (SELECT 1, 0) UNION
    (SELECT edge.Dst, path.Cost + edge.Cost
     FROM path, edge
     WHERE path.Dst = edge.Src AND path.Cost >= 5)
SELECT Dst, Cost FROM path`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := vetQuery(t, c.src)
			if got := rep.Verdict(); got != VerdictRefuted {
				t.Fatalf("verdict = %v, want refuted\n%s", got, rep)
			}
			if !hasCode(rep, "RV002") {
				t.Errorf("refuted without an RV002 diagnostic\n%s", rep)
			}
			if !rep.HasErrors() {
				t.Errorf("refutation is not error severity\n%s", rep)
			}
		})
	}
}

// TestInconclusivePatterns covers shapes the certifier declines to judge:
// an aggregate-dependent group column, a filter pinning the aggregate with
// =, and a head multiplying the aggregate by a non-constant.
func TestInconclusivePatterns(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"aggregate in group column", `
WITH recursive path (Dst, min() AS Cost) AS
    (SELECT 1, 0) UNION
    (SELECT path.Cost, path.Cost + edge.Cost
     FROM path, edge
     WHERE path.Dst = edge.Src)
SELECT Dst, Cost FROM path`},
		{"equality filter on aggregate", `
WITH recursive path (Dst, min() AS Cost) AS
    (SELECT 1, 0) UNION
    (SELECT edge.Dst, path.Cost + edge.Cost
     FROM path, edge
     WHERE path.Dst = edge.Src AND path.Cost = 3)
SELECT Dst, Cost FROM path`},
		{"non-constant scale", `
WITH recursive path (Dst, min() AS Cost) AS
    (SELECT 1, 1) UNION
    (SELECT edge.Dst, path.Cost * edge.Cost
     FROM path, edge
     WHERE path.Dst = edge.Src)
SELECT Dst, Cost FROM path`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := vetQuery(t, c.src)
			if got := rep.Verdict(); got != VerdictInconclusive {
				t.Fatalf("verdict = %v, want inconclusive\n%s", got, rep)
			}
			if !hasCode(rep, "RV003") {
				t.Errorf("inconclusive without an RV003 diagnostic\n%s", rep)
			}
		})
	}
}

// TestTerminationLint asserts RV010 fires on additive recursion (which
// diverges on cyclic inputs) and stays quiet on min/max.
func TestTerminationLint(t *testing.T) {
	for _, src := range []string{queries.CountPaths, queries.Management, queries.MLM} {
		if rep := vetQuery(t, src); !hasCode(rep, "RV010") {
			t.Errorf("additive recursion missing RV010\n%s", rep)
		}
	}
	for _, src := range []string{queries.SSSP, queries.Delivery} {
		if rep := vetQuery(t, src); hasCode(rep, "RV010") {
			t.Errorf("min/max recursion flagged RV010\n%s", rep)
		}
	}
}

// TestCoPartitionLint: SG joins the recursive view on two different
// columns, so its delta can never stay co-partitioned (RV020); SSSP and
// friends join on the full group key and stay quiet.
func TestCoPartitionLint(t *testing.T) {
	if rep := vetQuery(t, queries.SG); !hasCode(rep, "RV020") {
		t.Errorf("SG missing RV020\n%s", rep)
	}
	for _, src := range []string{queries.SSSP, queries.CC, queries.Management,
		queries.Delivery, queries.Reach, queries.TC, queries.Coalesce} {
		if rep := vetQuery(t, src); hasCode(rep, "RV020") || hasCode(rep, "RV021") {
			t.Errorf("unexpected co-partition diagnostic\n%s", rep)
		}
	}
}

// narrowedKeyQuery joins the recursive view on only the second of its two
// group columns, in both recursive rules: the default partition key (the
// full group-by) is never covered, but narrowing to column 1 lets both
// rules run co-partitioned.
const narrowedKeyQuery = `
WITH recursive p (A, B, min() AS C) AS
    (SELECT Src, Dst, Cost FROM edge) UNION
    (SELECT p.A, edge.Dst, p.C + edge.Cost
     FROM p, edge WHERE p.B = edge.Src) UNION
    (SELECT edge.Src, p.B, p.C + edge.Cost
     FROM p, edge WHERE p.B = edge.Dst)
SELECT A, B, C FROM p`

// TestNarrowedKeyLint pins RV021 on the contrived two-rule query above,
// and its absence where the rules already join on the full group key.
func TestNarrowedKeyLint(t *testing.T) {
	if rep := vetQuery(t, narrowedKeyQuery); !hasCode(rep, "RV021") {
		t.Errorf("missing RV021\n%s", rep)
	}
	for _, src := range []string{queries.SSSP, queries.Management, queries.MLM} {
		if rep := vetQuery(t, src); hasCode(rep, "RV021") {
			t.Errorf("unexpected narrowing for %.40s...\n%s", src, rep)
		}
	}
}

// TestHygieneLints covers the cartesian-product, unused-view, and
// group-by shape lints.
func TestHygieneLints(t *testing.T) {
	t.Run("RV030 cartesian rule", func(t *testing.T) {
		rep := vetQuery(t, `
WITH recursive reach (Dst) AS
    (SELECT a.Src FROM edge a, edge b) UNION
    (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src)
SELECT Dst FROM reach`)
		if !hasCode(rep, "RV030") {
			t.Errorf("missing RV030\n%s", rep)
		}
	})
	t.Run("RV030 cartesian final query", func(t *testing.T) {
		rep := vetQuery(t, `
WITH recursive reach (Dst) AS
    (SELECT 1) UNION
    (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src)
SELECT reach.Dst, edge.Dst FROM reach, edge`)
		if !hasCode(rep, "RV030") {
			t.Errorf("missing RV030\n%s", rep)
		}
	})
	t.Run("RV031 unused view", func(t *testing.T) {
		rep := vetQuery(t, `
WITH recursive reach (Dst) AS
    (SELECT 1) UNION
    (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src),
dead(T) AS (SELECT Src FROM edge)
SELECT Dst FROM reach`)
		if !hasCode(rep, "RV031") {
			t.Errorf("missing RV031\n%s", rep)
		}
	})
	t.Run("RV040 empty group-by", func(t *testing.T) {
		rep := vetQuery(t, `
WITH recursive m (min() AS C) AS
    (SELECT Cost FROM edge) UNION
    (SELECT m.C + 1 FROM m)
SELECT C FROM m`)
		if !hasCode(rep, "RV040") {
			t.Errorf("missing RV040\n%s", rep)
		}
	})
	t.Run("RV041 constant group column", func(t *testing.T) {
		rep := vetQuery(t, `
WITH recursive p (G, min() AS C) AS
    (SELECT 1, Cost FROM edge) UNION
    (SELECT 1, p.C + edge.Cost FROM p, edge WHERE p.G = edge.Src)
SELECT G, C FROM p`)
		if !hasCode(rep, "RV041") {
			t.Errorf("missing RV041\n%s", rep)
		}
	})
	t.Run("RV050 schedule-dependent group key", func(t *testing.T) {
		rep := vetQuery(t, `
WITH recursive sp (Dst, min() AS Cost) AS
    (SELECT 0, 0) UNION
    (SELECT sp.Cost, sp.Cost + edge.Cost FROM sp, edge WHERE sp.Dst = edge.Src)
SELECT Dst, Cost FROM sp`)
		if !hasCode(rep, "RV050") {
			t.Errorf("missing RV050\n%s", rep)
		}
	})
	t.Run("clean queries stay quiet", func(t *testing.T) {
		for _, src := range []string{queries.SSSP, queries.Delivery, queries.TC} {
			rep := vetQuery(t, src)
			for _, code := range []string{"RV030", "RV031", "RV040", "RV041", "RV050"} {
				if hasCode(rep, code) {
					t.Errorf("unexpected %s\n%s", code, rep)
				}
			}
		}
	})
}

// TestDiagnosticString pins the rendered diagnostic format.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Code: "RV002", Severity: SeverityError, View: "path", Rule: "recursive rule 1",
		Message: "bad", Hint: "fix it",
	}
	got := d.String()
	want := "RV002 error [path recursive rule 1]: bad\n    hint: fix it"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	rep := &Report{}
	rep.add(d)
	rep.Views = append(rep.Views, ViewVerdict{View: "path", Verdict: VerdictRefuted})
	if !strings.Contains(rep.String(), "PreM[path]: refuted") {
		t.Errorf("report rendering missing verdict line:\n%s", rep.String())
	}
}
