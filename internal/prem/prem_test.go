package prem

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/sql/parser"
	"github.com/rasql/rasql-go/internal/types"
	"github.com/rasql/rasql-go/queries"
)

func catWith(rels ...*relation.Relation) *catalog.Catalog {
	cat := catalog.New()
	for _, r := range rels {
		if err := cat.Register(r); err != nil {
			panic(err)
		}
	}
	return cat
}

func smallWeighted() *relation.Relation {
	rel := relation.New("edge", gen.EdgeSchema())
	for _, t := range [][3]float64{{1, 2, 1}, {2, 3, 2}, {1, 3, 5}, {3, 4, 1}} {
		rel.Append(types.Row{types.Int(int64(t[0])), types.Int(int64(t[1])), types.Float(t[2])})
	}
	return rel
}

// analyzeQ analyzes a script's last statement against cat, after
// registering the CREATE VIEW statements before it.
func analyzeQ(t *testing.T, src string, cat *catalog.Catalog) *analyze.Program {
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

func TestGPtestHoldsForAPSP(t *testing.T) {
	cat := catWith(smallWeighted())
	prog := analyzeQ(t, queries.APSP, cat)
	rep, err := Check(prog, exec.NewContext(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds || !rep.Converged {
		t.Errorf("APSP should satisfy PreM and converge: %s", rep)
	}
}

func TestGPtestHoldsForSSSPOnDAG(t *testing.T) {
	cat := catWith(smallWeighted())
	prog := analyzeQ(t, queries.SSSP, cat)
	rep, err := Check(prog, exec.NewContext(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Errorf("SSSP should satisfy PreM: %s", rep)
	}
}

func TestGPtestBoundedOnCyclicSSSP(t *testing.T) {
	// On a cyclic graph the un-aggregated twin never converges; the
	// checker must report bounded verification, not failure.
	rel := relation.New("edge", gen.EdgeSchema())
	for _, e := range [][3]float64{{1, 2, 1}, {2, 3, 1}, {3, 1, 1}} {
		rel.Append(types.Row{types.Int(int64(e[0])), types.Int(int64(e[1])), types.Float(e[2])})
	}
	prog := analyzeQ(t, queries.SSSP, catWith(rel))
	rep, err := Check(prog, exec.NewContext(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Errorf("PreM should hold on cycles: %s", rep)
	}
	if rep.Converged {
		t.Error("the un-aggregated twin cannot converge on a cycle within 10 steps")
	}
}

func TestGPtestHoldsForDelivery(t *testing.T) {
	basic := relation.New("basic", types.NewSchema(
		types.Col("Part", types.KindInt), types.Col("Days", types.KindInt)))
	basic.Append(types.Row{types.Int(3), types.Int(5)})
	basic.Append(types.Row{types.Int(4), types.Int(2)})
	assbl := relation.New("assbl", types.NewSchema(
		types.Col("Part", types.KindInt), types.Col("Spart", types.KindInt)))
	for _, p := range [][2]int64{{1, 2}, {1, 3}, {2, 4}, {2, 3}} {
		assbl.Append(types.Row{types.Int(p[0]), types.Int(p[1])})
	}
	prog := analyzeQ(t, queries.Delivery, catWith(basic, assbl))
	rep, err := Check(prog, exec.NewContext(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds || !rep.Converged {
		t.Errorf("Delivery (endo-max BOM) should satisfy PreM: %s", rep)
	}
}

func TestGPtestRejectsNonExtrema(t *testing.T) {
	cat := catWith(relation.New("report", types.NewSchema(
		types.Col("Emp", types.KindInt), types.Col("Mgr", types.KindInt))))
	prog := analyzeQ(t, queries.Management, cat)
	if _, err := Check(prog, exec.NewContext(), 10); err == nil {
		t.Error("count-in-recursion should be rejected by the PreM checker")
	}
}

func TestRewriteCheckingQuery(t *testing.T) {
	out, err := RewriteCheckingQuery(queries.APSP)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"all", "min() AS Cost", "UNION"} {
		if !strings.Contains(out, want) {
			t.Errorf("rewrite missing %q:\n%s", want, out)
		}
	}
	// The rewritten text must itself parse and analyze.
	prog := analyzeQ(t, out, catWith(smallWeighted()))
	if len(prog.Clique.Views) != 2 {
		t.Fatalf("rewritten query should have a two-view clique, got %d", len(prog.Clique.Views))
	}
	// And evaluating it must produce the same result as the original.
	ctxA, ctxB := exec.NewContext(), exec.NewContext()
	orig := analyzeQ(t, queries.APSP, catWith(smallWeighted()))
	resA := runLocal(t, orig, ctxA)
	resB := runLocal(t, prog, ctxB)
	if !resA.EqualAsSet(resB) {
		t.Errorf("PreM-checking version computes a different result:\n%v\nvs\n%v", resA.Sort(), resB.Sort())
	}
}

func TestRewriteRejectsUnsuitableQueries(t *testing.T) {
	if _, err := RewriteCheckingQuery(`SELECT 1`); err == nil {
		t.Error("non-WITH should be rejected")
	}
	if _, err := RewriteCheckingQuery(queries.TC); err == nil {
		t.Error("no-aggregate query should be rejected")
	}
	if _, err := RewriteCheckingQuery(queries.CountPaths); err == nil {
		t.Error("sum query should be rejected")
	}
	if _, err := RewriteCheckingQuery(queries.CompanyControl); err == nil {
		t.Error("multi-view query should be rejected")
	}
}

func TestAggregateHelper(t *testing.T) {
	rel := relation.New("r", types.NewSchema(
		types.Col("K", types.KindInt), types.Col("V", types.KindInt)))
	rows := [][2]int64{{1, 5}, {1, 3}, {2, 8}, {1, 7}}
	for _, r := range rows {
		rel.Append(types.Row{types.Int(r[0]), types.Int(r[1])})
	}
	got := rel.Aggregate([]int{0}, 1, types.AggMin)
	if got.Len() != 2 {
		t.Fatalf("groups = %d", got.Len())
	}
	for _, r := range got.Rows {
		switch r[0].AsInt() {
		case 1:
			if r[1].AsInt() != 3 {
				t.Errorf("min(1) = %v", r[1])
			}
		case 2:
			if r[1].AsInt() != 8 {
				t.Errorf("min(2) = %v", r[1])
			}
		}
	}
}

// Property test: PreM of min/max over the join-project transform of the
// paper's Section 3 identity, on random relations.
func TestPreMPropertyJoinProject(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	edgeRel := relation.New("edge", types.NewSchema(
		types.Col("Src", types.KindInt), types.Col("Dst", types.KindInt), types.Col("W", types.KindFloat)))
	for i := 0; i < 60; i++ {
		edgeRel.Append(types.Row{
			types.Int(rng.Int63n(10)), types.Int(rng.Int63n(10)), types.Float(float64(rng.Intn(20)))})
	}
	// T(R) = π(edge ⋈ R): new (Dst, cost+w) pairs — the SSSP transform.
	T := func(R *relation.Relation) *relation.Relation {
		out := relation.New("t", R.Schema)
		for _, r := range R.Rows {
			for _, e := range edgeRel.Rows {
				if e[0].Equal(r[0]) {
					out.Append(types.Row{e[1], r[1].Add(e[2])})
				}
			}
		}
		return out
	}
	for trial := 0; trial < 50; trial++ {
		R := relation.New("r", types.NewSchema(
			types.Col("Dst", types.KindInt), types.Col("Cost", types.KindFloat)))
		for i := 0; i < rng.Intn(30); i++ {
			R.Append(types.Row{types.Int(rng.Int63n(10)), types.Float(float64(rng.Intn(50)))})
		}
		if !HoldsFor(T, R, []int{0}, 1, types.AggMin) {
			t.Fatalf("PreM(min) must hold for the join-project transform (trial %d)", trial)
		}
		if !HoldsFor(T, R, []int{0}, 1, types.AggMax) {
			t.Fatalf("PreM(max) must hold for monotone additive transforms (trial %d)", trial)
		}
	}
}

// A transform that is NOT PreM: a conditional that inspects non-extremal
// values. PreM must be reported violated for some input.
func TestPreMPropertyDetectsViolation(t *testing.T) {
	// T counts the tuples per key — dropping non-minimal tuples changes
	// the count, so min is not PreM w.r.t. this T.
	T := func(R *relation.Relation) *relation.Relation {
		out := relation.New("t", R.Schema)
		counts := map[int64]int64{}
		for _, r := range R.Rows {
			counts[r[0].AsInt()]++
		}
		for k, c := range counts {
			out.Append(types.Row{types.Int(k), types.Float(float64(c))})
		}
		return out
	}
	R := relation.New("r", types.NewSchema(
		types.Col("K", types.KindInt), types.Col("V", types.KindFloat)))
	R.Append(types.Row{types.Int(1), types.Float(1)})
	R.Append(types.Row{types.Int(1), types.Float(2)})
	if HoldsFor(T, R, []int{0}, 1, types.AggMin) {
		t.Error("count-style transforms must violate PreM for min")
	}
}

func runLocal(t *testing.T, prog *analyze.Program, ctx *exec.Context) *relation.Relation {
	t.Helper()
	res, err := localFixpoint(prog, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The library queries the paper states were proven PreM must pass GPtest
// on random inputs.
func TestGPtestLibraryQueries(t *testing.T) {
	edges := relation.New("edge", gen.EdgeSchema())
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 18; i++ {
		edges.Append(types.Row{
			types.Int(rng.Int63n(8)), types.Int(rng.Int63n(8)),
			types.Float(float64(1 + rng.Intn(9)))})
	}
	sym := relation.New("edge", gen.PlainEdgeSchema())
	for _, r := range edges.Rows {
		sym.Append(types.Row{r[0], r[1]})
		sym.Append(types.Row{r[1], r[0]})
	}
	cases := []struct {
		name, src string
		cat       *catalog.Catalog
	}{
		{"APSP", queries.APSP, catWith(edges)},
		{"CC", queries.CCLabels, catWith(sym)},
	}
	for _, c := range cases {
		prog := analyzeQ(t, c.src, c.cat)
		rep, err := Check(prog, exec.NewContext(), 10)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !rep.Holds {
			t.Errorf("%s: PreM should hold: %s", c.name, rep)
		}
	}
}

// HoldsFor checks the algebraic PreM property γ(T(R)) = γ(T(γ(R))) for one
// application of a transform T on a concrete relation R. It is the direct
// Section 3 definition, the oracle of the property-based tests.
func HoldsFor(T func(*relation.Relation) *relation.Relation, R *relation.Relation,
	key []int, valIdx int, kind types.AggKind) bool {
	left := T(R).Aggregate(key, valIdx, kind)
	right := T(R.Aggregate(key, valIdx, kind)).Aggregate(key, valIdx, kind)
	return left.EqualAsSet(right)
}
