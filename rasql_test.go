package rasql_test

import (
	"errors"
	"strings"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/fixpoint"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/queries"
)

// ---- fixtures -------------------------------------------------------------

func relOf(name string, schema rasql.Schema, rows ...rasql.Row) *rasql.Relation {
	r := rasql.NewRelation(name, schema)
	for _, row := range rows {
		r.Append(row)
	}
	return r
}

func iRow(vals ...int64) rasql.Row {
	r := make(rasql.Row, len(vals))
	for i, v := range vals {
		r[i] = rasql.Int(v)
	}
	return r
}

func weightedEdges() *rasql.Relation {
	schema := rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("Dst", rasql.KindInt), rasql.Col("Cost", rasql.KindFloat))
	e := rasql.NewRelation("edge", schema)
	for _, t := range [][3]float64{
		{1, 2, 1}, {1, 3, 4}, {2, 3, 2}, {3, 4, 1}, {4, 2, 5}, {2, 5, 10}, {5, 1, 1},
	} {
		e.Append(rasql.Row{rasql.Int(int64(t[0])), rasql.Int(int64(t[1])), rasql.Float(t[2])})
	}
	return e
}

func plainEdges(pairs ...[2]int64) *rasql.Relation {
	schema := rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("Dst", rasql.KindInt))
	e := rasql.NewRelation("edge", schema)
	for _, p := range pairs {
		e.Append(iRow(p[0], p[1]))
	}
	return e
}

// symmetrized undirected edges for CC: components {1,2,3} and {4,5}.
func ccEdges() *rasql.Relation {
	return plainEdges([2]int64{1, 2}, [2]int64{2, 1}, [2]int64{2, 3}, [2]int64{3, 2},
		[2]int64{4, 5}, [2]int64{5, 4})
}

// naiveConfig selects naive evaluation, which runs on the local engine.
func naiveConfig() rasql.Config {
	var c rasql.Config
	c.Fixpoint.Naive = true
	return c
}

// engineConfigs enumerates the execution configurations every query must
// agree across: the reference engines and the distributed engine under each
// optimization combination.
func engineConfigs() map[string]rasql.Config {
	return map[string]rasql.Config{
		"local-semi-naive": {ForceLocal: true},
		"local-naive":      naiveConfig(),
		"dist-default":     {},
		"dist-uncombined": {RawOptimizations: true,
			Cluster: rasql.ClusterConfig{CompressBroadcast: true}},
		"dist-volcano": func() rasql.Config {
			c := rasql.Config{}
			c.Fixpoint.Volcano = true
			return c
		}(),
		"dist-sortmerge": func() rasql.Config {
			c := rasql.Config{}
			c.Fixpoint.Join = fixpoint.SortMerge
			return c
		}(),
		"dist-hybrid-sched": {Cluster: rasql.ClusterConfig{Policy: rasql.PolicyHybrid}},
		"dist-immutable":    {Cluster: rasql.ClusterConfig{ImmutableState: true}},
		"dist-no-decompose": func() rasql.Config {
			c := rasql.Config{}
			c.Fixpoint.DisableDecomposition = true
			return c
		}(),
		"dist-1worker": {Cluster: rasql.ClusterConfig{Workers: 1, Partitions: 1}},
		"dist-7parts":  {Cluster: rasql.ClusterConfig{Workers: 3, Partitions: 7}},
	}
}

// runAll runs a query under every engine configuration and checks the
// result equals want as a set.
func runAll(t *testing.T, tables []*rasql.Relation, query string, want *rasql.Relation) {
	t.Helper()
	for name, cfg := range engineConfigs() {
		eng := rasql.New(cfg)
		for _, tab := range tables {
			eng.MustRegister(tab.Clone())
		}
		got, err := eng.Query(query)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !got.EqualAsSet(want) {
			t.Errorf("%s: wrong result\n got: %v\nwant: %v", name, got.Sort(), want.Clone().Sort())
		}
	}
}

// ---- paper queries end to end ---------------------------------------------

func TestSSSP(t *testing.T) {
	want := relOf("want", rasql.NewSchema(rasql.Col("Dst", rasql.KindInt), rasql.Col("Cost", rasql.KindFloat)),
		rasql.Row{rasql.Int(1), rasql.Float(0)},
		rasql.Row{rasql.Int(2), rasql.Float(1)},
		rasql.Row{rasql.Int(3), rasql.Float(3)},
		rasql.Row{rasql.Int(4), rasql.Float(4)},
		rasql.Row{rasql.Int(5), rasql.Float(11)},
	)
	runAll(t, []*rasql.Relation{weightedEdges()}, queries.SSSP, want)
}

func TestTC(t *testing.T) {
	edges := plainEdges([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 4})
	want := relOf("want", edges.Schema,
		iRow(1, 2), iRow(1, 3), iRow(1, 4), iRow(2, 3), iRow(2, 4), iRow(3, 4))
	runAll(t, []*rasql.Relation{edges}, queries.TC, want)
}

func TestTCOnCycleTerminates(t *testing.T) {
	edges := plainEdges([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 1})
	var want []rasql.Row
	for s := int64(1); s <= 3; s++ {
		for d := int64(1); d <= 3; d++ {
			want = append(want, iRow(s, d))
		}
	}
	runAll(t, []*rasql.Relation{edges}, queries.TC, relOf("want", edges.Schema, want...))
}

func TestCC(t *testing.T) {
	want := relOf("want", rasql.NewSchema(rasql.Col("count", rasql.KindInt)), iRow(2))
	runAll(t, []*rasql.Relation{ccEdges()}, queries.CC, want)
}

func TestCCLabels(t *testing.T) {
	schema := rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("CmpId", rasql.KindInt))
	want := relOf("want", schema,
		iRow(1, 1), iRow(2, 1), iRow(3, 1), iRow(4, 4), iRow(5, 4))
	runAll(t, []*rasql.Relation{ccEdges()}, queries.CCLabels, want)
}

func TestReach(t *testing.T) {
	edges := plainEdges([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{4, 5})
	want := relOf("want", rasql.NewSchema(rasql.Col("Dst", rasql.KindInt)),
		iRow(1), iRow(2), iRow(3))
	runAll(t, []*rasql.Relation{edges}, queries.Reach, want)
}

func TestCountPaths(t *testing.T) {
	edges := plainEdges([2]int64{1, 2}, [2]int64{1, 3}, [2]int64{2, 4}, [2]int64{3, 4}, [2]int64{4, 5})
	want := relOf("want", rasql.NewSchema(rasql.Col("Dst", rasql.KindInt), rasql.Col("Cnt", rasql.KindInt)),
		iRow(1, 1), iRow(2, 1), iRow(3, 1), iRow(4, 2), iRow(5, 2))
	runAll(t, []*rasql.Relation{edges}, queries.CountPaths, want)
}

func TestManagement(t *testing.T) {
	report := relOf("report",
		rasql.NewSchema(rasql.Col("Emp", rasql.KindInt), rasql.Col("Mgr", rasql.KindInt)),
		iRow(2, 1), iRow(3, 1), iRow(4, 2)) // 2,3 report to 1; 4 reports to 2
	want := relOf("want", rasql.NewSchema(rasql.Col("Mgr", rasql.KindInt), rasql.Col("Cnt", rasql.KindInt)),
		iRow(1, 3), iRow(2, 2), iRow(3, 1), iRow(4, 1))
	runAll(t, []*rasql.Relation{report}, queries.Management, want)
}

func TestMLM(t *testing.T) {
	sales := relOf("sales",
		rasql.NewSchema(rasql.Col("M", rasql.KindInt), rasql.Col("P", rasql.KindFloat)),
		rasql.Row{rasql.Int(1), rasql.Float(100)},
		rasql.Row{rasql.Int(2), rasql.Float(200)},
		rasql.Row{rasql.Int(3), rasql.Float(300)},
	)
	sponsor := relOf("sponsor",
		rasql.NewSchema(rasql.Col("M1", rasql.KindInt), rasql.Col("M2", rasql.KindInt)),
		iRow(1, 2), iRow(2, 3))
	// bonus(3)=30, bonus(2)=20+15=35, bonus(1)=10+17.5=27.5
	want := relOf("want", rasql.NewSchema(rasql.Col("M", rasql.KindInt), rasql.Col("B", rasql.KindFloat)),
		rasql.Row{rasql.Int(1), rasql.Float(27.5)},
		rasql.Row{rasql.Int(2), rasql.Float(35)},
		rasql.Row{rasql.Int(3), rasql.Float(30)},
	)
	runAll(t, []*rasql.Relation{sales, sponsor}, queries.MLM, want)
}

func bomTables() []*rasql.Relation {
	basic := relOf("basic",
		rasql.NewSchema(rasql.Col("Part", rasql.KindInt), rasql.Col("Days", rasql.KindInt)),
		iRow(3, 5), iRow(4, 2))
	assbl := relOf("assbl",
		rasql.NewSchema(rasql.Col("Part", rasql.KindInt), rasql.Col("Spart", rasql.KindInt)),
		iRow(1, 2), iRow(1, 3), iRow(2, 4), iRow(2, 3))
	return []*rasql.Relation{basic, assbl}
}

func TestDeliveryEndoMax(t *testing.T) {
	want := relOf("want", rasql.NewSchema(rasql.Col("Part", rasql.KindInt), rasql.Col("Days", rasql.KindInt)),
		iRow(3, 5), iRow(4, 2), iRow(2, 5), iRow(1, 5))
	runAll(t, bomTables(), queries.Delivery, want)
}

func TestDeliveryStratifiedEquivalence(t *testing.T) {
	// PreM: the stratified Q1 and the endo-max Q2 must agree.
	eng := rasql.New(rasql.Config{})
	for _, tab := range bomTables() {
		eng.MustRegister(tab)
	}
	q1, err := eng.Query(queries.DeliveryStratified)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := eng.Query(queries.Delivery)
	if err != nil {
		t.Fatal(err)
	}
	if !q1.EqualAsSet(q2) {
		t.Errorf("stratified and endo-max disagree:\nQ1 %v\nQ2 %v", q1.Sort(), q2.Sort())
	}
}

func TestAPSP(t *testing.T) {
	schema := rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("Dst", rasql.KindInt), rasql.Col("Cost", rasql.KindFloat))
	e := rasql.NewRelation("edge", schema)
	for _, t3 := range [][3]float64{{1, 2, 1}, {2, 3, 2}, {1, 3, 5}, {3, 1, 1}} {
		e.Append(rasql.Row{rasql.Int(int64(t3[0])), rasql.Int(int64(t3[1])), rasql.Float(t3[2])})
	}
	want := rasql.NewRelation("want", schema)
	for _, t3 := range [][3]float64{
		{1, 2, 1}, {1, 3, 3}, {2, 3, 2}, {3, 1, 1}, {2, 1, 3}, {3, 2, 2},
		{1, 1, 4}, {2, 2, 4}, {3, 3, 4},
	} {
		want.Append(rasql.Row{rasql.Int(int64(t3[0])), rasql.Int(int64(t3[1])), rasql.Float(t3[2])})
	}
	runAll(t, []*rasql.Relation{e}, queries.APSP, want)
}

func TestSG(t *testing.T) {
	rel := relOf("rel",
		rasql.NewSchema(rasql.Col("Parent", rasql.KindInt), rasql.Col("Child", rasql.KindInt)),
		iRow(1, 2), iRow(1, 3), iRow(2, 4), iRow(3, 5)) // a=1,b=2,c=3,d=4,e=5
	want := relOf("want", rasql.NewSchema(rasql.Col("X", rasql.KindInt), rasql.Col("Y", rasql.KindInt)),
		iRow(2, 3), iRow(3, 2), iRow(4, 5), iRow(5, 4))
	runAll(t, []*rasql.Relation{rel}, queries.SG, want)
}

func TestIntervalCoalesce(t *testing.T) {
	inter := relOf("inter",
		rasql.NewSchema(rasql.Col("S", rasql.KindInt), rasql.Col("E", rasql.KindInt)),
		iRow(1, 3), iRow(2, 4), iRow(6, 7))
	want := relOf("want", rasql.NewSchema(rasql.Col("S", rasql.KindInt), rasql.Col("E", rasql.KindInt)),
		iRow(1, 4), iRow(6, 7))
	runAll(t, []*rasql.Relation{inter}, queries.Coalesce, want)
}

func partyTables() []*rasql.Relation {
	organizer := relOf("organizer",
		rasql.NewSchema(rasql.Col("OrgName", rasql.KindString)),
		rasql.Row{rasql.Str("o1")}, rasql.Row{rasql.Str("o2")}, rasql.Row{rasql.Str("o3")})
	f := func(p, fr string) rasql.Row { return rasql.Row{rasql.Str(p), rasql.Str(fr)} }
	friend := relOf("friend",
		rasql.NewSchema(rasql.Col("Pname", rasql.KindString), rasql.Col("Fname", rasql.KindString)),
		f("o1", "x"), f("o2", "x"), f("o3", "x"), // x has three attending friends
		f("x", "y"), f("o1", "y"), f("o2", "y"), // y reaches three once x attends
		f("o1", "z"), f("x", "z"), // z has only two
	)
	return []*rasql.Relation{organizer, friend}
}

func TestPartyAttendance(t *testing.T) {
	want := relOf("want", rasql.NewSchema(rasql.Col("Person", rasql.KindString)),
		rasql.Row{rasql.Str("o1")}, rasql.Row{rasql.Str("o2")}, rasql.Row{rasql.Str("o3")},
		rasql.Row{rasql.Str("x")}, rasql.Row{rasql.Str("y")})
	runAll(t, partyTables(), queries.Party, want)
}

func TestCompanyControl(t *testing.T) {
	s := func(by, of string, p int64) rasql.Row {
		return rasql.Row{rasql.Str(by), rasql.Str(of), rasql.Int(p)}
	}
	shares := relOf("shares",
		rasql.NewSchema(rasql.Col("By", rasql.KindString), rasql.Col("Of", rasql.KindString), rasql.Col("Percent", rasql.KindInt)),
		s("a", "b", 60), s("a", "c", 30), s("b", "c", 25))
	want := relOf("want",
		rasql.NewSchema(rasql.Col("ByCom", rasql.KindString), rasql.Col("OfCom", rasql.KindString), rasql.Col("Tot", rasql.KindInt)),
		s("a", "b", 60), s("a", "c", 55), s("b", "c", 25))
	runAll(t, []*rasql.Relation{shares}, queries.CompanyControl, want)
}

// ---- termination guards (Figure 1 behaviour) -------------------------------

func TestStratifiedSSSPDoesNotTerminateOnCycles(t *testing.T) {
	cfg := rasql.Config{ForceLocal: true}
	cfg.Fixpoint.MaxIterations = 50
	cfg.Fixpoint.MaxRows = 100000
	eng := rasql.New(cfg)
	eng.MustRegister(weightedEdges()) // contains cycles
	_, err := eng.Query(queries.SSSPStratified)
	var nt *fixpoint.ErrNonTermination
	if !errors.As(err, &nt) {
		t.Fatalf("want non-termination error, got %v", err)
	}
}

func TestRaSQLSSSPTerminatesOnSameCycles(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())
	if _, err := eng.Query(queries.SSSP); err != nil {
		t.Fatalf("endo-min SSSP should terminate: %v", err)
	}
}

func TestStratifiedCCAgreesOnAcyclicPropagation(t *testing.T) {
	// CC's stratified version terminates (labels are finite) and must
	// agree with the endo-min version.
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(ccEdges())
	a, err := eng.Query(queries.CC)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Query(queries.CCStratified)
	if err != nil {
		t.Fatal(err)
	}
	if !a.EqualAsSet(b) {
		t.Errorf("CC vs stratified CC: %v vs %v", a, b)
	}
}

// ---- plumbing ---------------------------------------------------------------

func TestExplain(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())
	out, err := eng.Explain(queries.SSSP)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fixpoint[path]", "co-partition", "min()"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	out, err = eng.Explain(queries.TC)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "decomposed=true") {
		t.Errorf("TC should plan decomposed:\n%s", out)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())
	if _, err := eng.Query(queries.SSSP); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.StagesRun == 0 || m.Iterations == 0 {
		t.Errorf("metrics should show activity: %v", m)
	}
	if _, err := eng.Query(queries.SSSP); err != nil {
		t.Fatal(err)
	}
	if again := eng.Metrics(); again.StagesRun != 2*m.StagesRun || again.Iterations != 2*m.Iterations {
		t.Errorf("a second identical query should double the counters: %v after %v", again, m)
	}
}

func TestViewOnlyScript(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())
	rel, err := eng.Exec(`CREATE VIEW v(X) AS (SELECT Src FROM edge)`)
	if err != nil {
		t.Fatal(err)
	}
	if rel != nil {
		t.Error("view-only script should return nil relation")
	}
	got, err := eng.Query(`SELECT distinct X FROM v WHERE X = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("view should be usable afterwards: %v", got)
	}
}

// TestRerunScriptWithView runs a script that defines a view through every
// entry point, on an engine whose session already holds the view and on a
// fresh one: CREATE VIEW replaces, so none fails on the duplicate, and only
// Exec, Explain and ExplainAnalyze (which executes) commit it.
func TestRerunScriptWithView(t *testing.T) {
	const script = `CREATE VIEW v(X) AS (SELECT 1); SELECT X FROM v`
	eng := rasql.New(rasql.Config{})
	for i := 0; i < 2; i++ {
		if _, err := eng.Exec(script); err != nil {
			t.Fatalf("Exec run %d: %v", i+1, err)
		}
	}
	if _, err := eng.Vet(script); err != nil {
		t.Errorf("Vet after Exec: %v", err)
	}
	if _, err := eng.Explain(script); err != nil {
		t.Errorf("Explain after Exec: %v", err)
	}
	if _, err := eng.ExplainAnalyze(script); err != nil {
		t.Errorf("ExplainAnalyze after Exec: %v", err)
	}
	if _, err := eng.Prepare(script); !errors.Is(err, rasql.ErrNotPreparable) {
		t.Errorf("Prepare = %v, want ErrNotPreparable", err)
	}

	fresh := rasql.New(rasql.Config{})
	if _, err := fresh.Vet(script); err != nil {
		t.Fatalf("Vet: %v", err)
	}
	if _, err := fresh.Query(`SELECT X FROM v`); err == nil {
		t.Fatal("Vet committed the view to the session")
	}
	for i := 0; i < 2; i++ {
		if _, err := fresh.Explain(script); err != nil {
			t.Fatalf("Explain run %d: %v", i+1, err)
		}
	}
	if _, err := fresh.Query(`SELECT X FROM v`); err != nil {
		t.Errorf("Explain did not commit the view: %v", err)
	}
}

// TestSelectWithoutFromHonorsWhere: a SELECT without FROM answers its one
// row only when its WHERE holds, on the distributed engine and the local
// one alike.
func TestSelectWithoutFromHonorsWhere(t *testing.T) {
	for _, cfg := range []rasql.Config{{}, {ForceLocal: true}} {
		eng := rasql.New(cfg)
		for q, want := range map[string]int{
			`SELECT 1 WHERE 1 = 0`:           0,
			`SELECT 1, 2 WHERE false`:        0,
			`SELECT 1 WHERE 1 = 1`:           1,
			`SELECT 1, 2 WHERE 1 < 2`:        1,
			`SELECT 1 WHERE 1 = 1 AND false`: 0,
		} {
			got, err := eng.Query(q)
			if err != nil {
				t.Fatalf("ForceLocal=%v: %s: %v", cfg.ForceLocal, q, err)
			}
			if got.Len() != want {
				t.Errorf("ForceLocal=%v: %s answers %d rows, want %d", cfg.ForceLocal, q, got.Len(), want)
			}
		}
	}
}

// TestBranchDistinctIsItsOwn: a UNION branch's DISTINCT deduplicates that
// branch's rows only, before they join the union, on the distributed engine
// and the local one alike. Over RMAT-20's 200 edges, 19 distinct Src values
// and 200 Src rows make 219.
func TestBranchDistinctIsItsOwn(t *testing.T) {
	edges := gen.RMATDefault(20, gen.Rng(1))
	edges.Name = "edge"
	for _, cfg := range []rasql.Config{{}, {ForceLocal: true}} {
		eng := rasql.New(cfg)
		eng.MustRegister(edges.Clone())
		for q, want := range map[string]int{
			`SELECT DISTINCT Src FROM edge`:                                    19,
			`SELECT DISTINCT Src FROM edge UNION ALL SELECT Src FROM edge`:     219,
			`(SELECT DISTINCT Src FROM edge) UNION ALL (SELECT Src FROM edge)`: 219,
			`SELECT Src FROM edge UNION ALL SELECT DISTINCT Src FROM edge`:     219,
			`SELECT Src FROM edge UNION SELECT DISTINCT Src FROM edge`:         19,
		} {
			got, err := eng.Query(q)
			if err != nil {
				t.Fatalf("ForceLocal=%v: %s: %v", cfg.ForceLocal, q, err)
			}
			if got.Len() != want {
				t.Errorf("ForceLocal=%v: %s answers %d rows, want %d", cfg.ForceLocal, q, got.Len(), want)
			}
		}
	}
}

func TestQueryErrors(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	if _, err := eng.Query(`SELECT`); err == nil {
		t.Error("syntax error should surface")
	}
	if _, err := eng.Query(`SELECT X FROM missing`); err == nil {
		t.Error("analysis error should surface")
	}
	if _, err := eng.Query(`CREATE VIEW v(X) AS (SELECT 1)`); err == nil {
		t.Error("Query on view-only script should error")
	}
}

// Stages run on real goroutines by default; results must match the
// sequential debugging mode (validated under -race in CI).
func TestParallelStagesMatchesSequential(t *testing.T) {
	g := weightedEdges()
	seq := rasql.New(rasql.Config{Cluster: rasql.ClusterConfig{SequentialStages: true}})
	seq.MustRegister(g.Clone())
	want, err := seq.Query(queries.SSSP)
	if err != nil {
		t.Fatal(err)
	}
	par := rasql.New(rasql.Config{Cluster: rasql.ClusterConfig{Workers: 4, Partitions: 8}})
	par.MustRegister(g.Clone())
	got, err := par.Query(queries.SSSP)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		t.Error("parallel stages changed results")
	}
}

// Engine.Vet analyzes without executing or mutating the session: vetting a
// script that defines views must not poison a later Exec of the same
// script, and verdicts/severities surface through the public aliases.
func TestEngineVet(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())

	rep, err := eng.Vet(queries.SSSP)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict() != rasql.VetCertified {
		t.Errorf("SSSP verdict = %v, want certified\n%s", rep.Verdict(), rep)
	}
	if rep.HasErrors() {
		t.Errorf("SSSP vet reported errors\n%s", rep)
	}

	refuted := `
WITH recursive path (Dst, min() AS Cost) AS
    (SELECT 1, 0) UNION
    (SELECT edge.Dst, edge.Cost - path.Cost
     FROM path, edge WHERE path.Dst = edge.Src)
SELECT Dst, Cost FROM path`
	rep, err = eng.Vet(refuted)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict() != rasql.VetRefuted || !rep.HasErrors() {
		t.Errorf("refuted query: verdict = %v, errors = %v\n%s", rep.Verdict(), rep.HasErrors(), rep)
	}

	// Coalesce contains a CREATE VIEW; vetting twice and then executing
	// must all succeed (the view registers into a catalog clone).
	coalesceEng := rasql.New(rasql.Config{})
	coalesceEng.MustRegister(relOf("inter",
		rasql.NewSchema(rasql.Col("S", rasql.KindInt), rasql.Col("E", rasql.KindInt)),
		iRow(1, 3), iRow(2, 4), iRow(6, 7)))
	for i := 0; i < 2; i++ {
		rep, err := coalesceEng.Vet(queries.Coalesce)
		if err != nil {
			t.Fatalf("vet %d: %v", i, err)
		}
		if rep.Verdict() != rasql.VetCertified {
			t.Errorf("Coalesce verdict = %v, want certified\n%s", rep.Verdict(), rep)
		}
	}
	if _, err := coalesceEng.Query(queries.Coalesce); err != nil {
		t.Fatalf("exec after vet: %v", err)
	}
}
