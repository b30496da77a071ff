package fixpoint

import (
	"testing"

	"github.com/rasql/rasql-go/internal/cluster"
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

func testCatalog(rels ...*relation.Relation) *catalog.Catalog {
	cat := catalog.New()
	for _, r := range rels {
		if err := cat.Register(r); err != nil {
			panic(err)
		}
	}
	return cat
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

func testCluster() *cluster.QueryContext {
	return cluster.New(cluster.Config{Workers: 4, Partitions: 4, CompressBroadcast: true}).NewQuery(nil)
}

func TestPlanStrategiesMatchPaper(t *testing.T) {
	edges3 := relation.New("edge", gen.EdgeSchema())
	report := relation.New("report", types.NewSchema(
		types.Col("Emp", types.KindInt), types.Col("Mgr", types.KindInt)))
	rel := relation.New("rel", types.NewSchema(
		types.Col("Parent", types.KindInt), types.Col("Child", types.KindInt)))

	cases := []struct {
		name, src      string
		cat            *catalog.Catalog
		wantDecomposed bool
		wantStrategy   RuleStrategy
	}{
		// SSSP/CC/Management co-partition on the group key (Alg 4/5).
		{"SSSP", queries.SSSP, testCatalog(edges3), false, StrategyCoPartition},
		{"Management", queries.Management, testCatalog(report), false, StrategyCoPartition},
		// TC carries its Src column — decomposable (Section 7.2).
		{"TC", queries.TC, testCatalog(edges3), true, StrategyDecomposed},
		// APSP carries Src inside its group key — decomposable.
		{"APSP", queries.APSP, testCatalog(edges3), true, StrategyDecomposed},
		// SG joins the recursive view on two different columns — broadcast.
		{"SG", queries.SG, testCatalog(rel), false, StrategyBroadcast},
	}
	for _, c := range cases {
		prog := analyzeQ(t, c.src, c.cat)
		plan, err := PlanDistributed(prog.Clique)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if plan.Decomposed != c.wantDecomposed {
			t.Errorf("%s: decomposed = %v, want %v", c.name, plan.Decomposed, c.wantDecomposed)
		}
		for _, rp := range plan.Rules {
			if rp.Strategy != c.wantStrategy {
				t.Errorf("%s: strategy = %v, want %v", c.name, rp.Strategy, c.wantStrategy)
			}
		}
	}
}

func TestPlanRejectsMutualRecursion(t *testing.T) {
	shares := relation.New("shares", types.NewSchema(
		types.Col("By", types.KindString), types.Col("Of", types.KindString), types.Col("Percent", types.KindInt)))
	prog := analyzeQ(t, queries.CompanyControl, testCatalog(shares))
	if _, err := PlanDistributed(prog.Clique); err == nil {
		t.Error("mutual recursion must fall back to the local engine")
	}
}

func TestPlanDeltaModes(t *testing.T) {
	report := relation.New("report", types.NewSchema(
		types.Col("Emp", types.KindInt), types.Col("Mgr", types.KindInt)))
	prog := analyzeQ(t, queries.Management, testCatalog(report))
	plan, err := PlanDistributed(prog.Clique)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Rules[0].UseIncrements {
		t.Error("Management propagates running counts — delta must carry increments")
	}
	edges := relation.New("edge", gen.EdgeSchema())
	prog = analyzeQ(t, queries.SSSP, testCatalog(edges))
	plan, err = PlanDistributed(prog.Clique)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rules[0].UseIncrements || plan.Rules[0].NewGroupsOnly {
		t.Error("min views stream plain delta rows")
	}
}

// runWays runs a program's clique through every engine entry point and
// returns the view relations keyed by runner name.
func runWays(t *testing.T, src string, cat *catalog.Catalog, viewName string) map[string]*relation.Relation {
	t.Helper()
	out := map[string]*relation.Relation{}
	run := func(name string, f func(*analyze.Clique, *exec.Context) (*Result, error)) {
		prog := analyzeQ(t, src, cat)
		ctx := exec.NewContext()
		res, err := f(prog.Clique, ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = res.Relations[viewName]
	}
	run("local", func(cl *analyze.Clique, ctx *exec.Context) (*Result, error) {
		return Local(cl, ctx, Options{})
	})
	run("local-naive", func(cl *analyze.Clique, ctx *exec.Context) (*Result, error) {
		return Local(cl, ctx, Options{Naive: true})
	})
	run("dist-combined", func(cl *analyze.Clique, ctx *exec.Context) (*Result, error) {
		return Distributed(cl, ctx, testCluster(), DistOptions{StageCombination: true})
	})
	run("dist-twostage", func(cl *analyze.Clique, ctx *exec.Context) (*Result, error) {
		return Distributed(cl, ctx, testCluster(), DistOptions{})
	})
	run("sql-sn", func(cl *analyze.Clique, ctx *exec.Context) (*Result, error) {
		return DistributedSQLSN(cl, ctx, testCluster(), DistOptions{})
	})
	run("sql-naive", func(cl *analyze.Clique, ctx *exec.Context) (*Result, error) {
		return DistributedSQLNaive(cl, ctx, testCluster(), DistOptions{})
	})
	return out
}

func TestBaselinesAgreeOnAllWorkloads(t *testing.T) {
	tree := gen.NewTree(4, 2, 3, 0.3, 0, gen.Rng(17))
	assbl, basic := tree.AssblBasic(30, gen.Rng(3))
	sales, sponsor := tree.SalesSponsor(50, gen.Rng(4))
	report := tree.Report()
	edges := gen.RMATDefault(128, gen.Rng(21))
	sym := gen.Symmetrized(gen.Unweighted(edges))

	cases := []struct {
		name, src, view string
		cat             *catalog.Catalog
	}{
		{"SSSP", queries.SSSP, "path", testCatalog(edges)},
		{"CC", queries.CCLabels, "cc", testCatalog(sym)},
		{"REACH", queries.Reach, "reach", testCatalog(gen.Unweighted(edges))},
		{"Delivery", queries.Delivery, "waitfor", testCatalog(assbl, basic)},
		{"Management", queries.Management, "empcount", testCatalog(report)},
		{"MLM", queries.MLM, "bonus", testCatalog(sales, sponsor)},
	}
	for _, c := range cases {
		results := runWays(t, c.src, c.cat, c.view)
		ref := results["local"]
		if ref == nil || ref.Len() == 0 {
			t.Fatalf("%s: empty reference result", c.name)
		}
		for name, got := range results {
			if name == "local" {
				continue
			}
			if !sameValued(ref, got, c.name == "MLM") {
				t.Errorf("%s: %s disagrees with the local reference (%d vs %d rows)",
					c.name, name, got.Len(), ref.Len())
			}
		}
	}
}

// sameValued compares relations as sets; for float-valued views it allows
// tiny rounding drift from different accumulation orders.
func sameValued(a, b *relation.Relation, approx bool) bool {
	if !approx {
		return a.EqualAsSet(b)
	}
	if a.Len() != b.Len() {
		return false
	}
	am := map[int64]float64{}
	for _, r := range a.Rows {
		am[r[0].AsInt()] = r[1].AsFloat()
	}
	for _, r := range b.Rows {
		v, ok := am[r[0].AsInt()]
		if !ok {
			return false
		}
		d := v - r[1].AsFloat()
		if d < -1e-6 || d > 1e-6 {
			return false
		}
	}
	return true
}

func TestDecomposedMatchesShuffled(t *testing.T) {
	edges := gen.Unweighted(gen.RMATDefault(64, gen.Rng(5)))
	cat := testCatalog(edges)
	progA := analyzeQ(t, queries.TC, cat)
	ctxA := exec.NewContext()
	a, err := Distributed(progA.Clique, ctxA, testCluster(), DistOptions{StageCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	progB := analyzeQ(t, queries.TC, cat)
	ctxB := exec.NewContext()
	b, err := Distributed(progB.Clique, ctxB, testCluster(), DistOptions{DisableDecomposition: true, StageCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Relations["tc"].EqualAsSet(b.Relations["tc"]) {
		t.Error("decomposed and shuffled TC disagree")
	}
}

func TestStageCombinationReducesStages(t *testing.T) {
	edges := gen.Unweighted(gen.RMATDefault(256, gen.Rng(9)))
	cat := testCatalog(edges)

	run := func(combine bool) cluster.Snapshot {
		c := testCluster()
		prog := analyzeQ(t, queries.Reach, cat)
		if _, err := Distributed(prog.Clique, exec.NewContext(), c, DistOptions{StageCombination: combine}); err != nil {
			t.Fatal(err)
		}
		return c.Metrics.Snapshot()
	}
	with := run(true)
	without := run(false)
	if with.Iterations != without.Iterations {
		t.Errorf("iteration counts differ: %d vs %d", with.Iterations, without.Iterations)
	}
	if with.StagesRun >= without.StagesRun {
		t.Errorf("stage combination should cut stages: with=%d without=%d",
			with.StagesRun, without.StagesRun)
	}
}

func TestPartitionAwareSchedulingCutsRemoteBytes(t *testing.T) {
	edges := gen.RMATDefault(256, gen.Rng(13))
	run := func(policy cluster.Policy) int64 {
		c := cluster.New(cluster.Config{Workers: 4, Partitions: 4,
			CompressBroadcast: true, Policy: policy}).NewQuery(nil)
		prog := analyzeQ(t, queries.SSSP, testCatalog(edges))
		if _, err := Distributed(prog.Clique, exec.NewContext(), c, DistOptions{StageCombination: true}); err != nil {
			t.Fatal(err)
		}
		s := c.Metrics.Snapshot()
		return s.RemoteFetchBytes + s.ShuffleBytes
	}
	aware := run(cluster.PolicyPartitionAware)
	hybrid := run(cluster.PolicyHybrid)
	if aware >= hybrid {
		t.Errorf("partition-aware scheduling should move fewer bytes: aware=%d hybrid=%d", aware, hybrid)
	}
}

func TestNonTerminationGuardDistributed(t *testing.T) {
	// Stratified-style TC on a cycle terminates (set semantics); instead
	// test MaxRows with sum on a cyclic graph (divergent path counts).
	edges := relation.New("edge", gen.PlainEdgeSchema())
	for _, p := range [][2]int64{{1, 2}, {2, 1}} {
		edges.Append(types.Row{types.Int(p[0]), types.Int(p[1])})
	}
	prog := analyzeQ(t, queries.CountPaths, testCatalog(edges))
	_, err := Distributed(prog.Clique, exec.NewContext(), testCluster(),
		DistOptions{Options: Options{MaxIterations: 25}, StageCombination: true})
	if err == nil {
		t.Fatal("sum over a cycle must hit the iteration guard")
	}
}

// TestDecomposedNonTerminationGuard trips the iteration guard inside a
// decomposed TC while sibling partitions are still merging, so the error it
// builds must read only its own partition (make race runs it under -race).
func TestDecomposedNonTerminationGuard(t *testing.T) {
	edges := relation.New("edge", gen.PlainEdgeSchema())
	for i := int64(0); i < 64; i++ {
		edges.Append(types.Row{types.Int(i), types.Int(i + 1)})
	}
	prog := analyzeQ(t, queries.TC, testCatalog(edges))
	_, err := Distributed(prog.Clique, exec.NewContext(), testCluster(),
		DistOptions{Options: Options{MaxIterations: 1}, StageCombination: true})
	if _, ok := err.(*ErrNonTermination); !ok {
		t.Fatalf("err = %v, want ErrNonTermination", err)
	}
}

func TestVolcanoMatchesFused(t *testing.T) {
	edges := gen.RMATDefault(128, gen.Rng(31))
	for _, combine := range []bool{true, false} {
		progA := analyzeQ(t, queries.SSSP, testCatalog(edges))
		a, err := Distributed(progA.Clique, exec.NewContext(), testCluster(),
			DistOptions{StageCombination: combine})
		if err != nil {
			t.Fatal(err)
		}
		progB := analyzeQ(t, queries.SSSP, testCatalog(edges))
		b, err := Distributed(progB.Clique, exec.NewContext(), testCluster(),
			DistOptions{StageCombination: combine, Volcano: true})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Relations["path"].EqualAsSet(b.Relations["path"]) {
			t.Errorf("volcano and fused disagree (combine=%v)", combine)
		}
	}
}

func TestSortMergeMatchesHash(t *testing.T) {
	edges := gen.RMATDefault(128, gen.Rng(37))
	progA := analyzeQ(t, queries.SSSP, testCatalog(edges))
	a, err := Distributed(progA.Clique, exec.NewContext(), testCluster(),
		DistOptions{StageCombination: true, Join: SortMerge})
	if err != nil {
		t.Fatal(err)
	}
	progB := analyzeQ(t, queries.SSSP, testCatalog(edges))
	b, err := Distributed(progB.Clique, exec.NewContext(), testCluster(),
		DistOptions{StageCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Relations["path"].EqualAsSet(b.Relations["path"]) {
		t.Error("sort-merge and shuffle-hash disagree")
	}
}

// Section 6.1: a task failure after mutating the cached state must be
// recoverable by restoring the iteration checkpoint and replaying — for
// set, extremum and (the hard case) additive views. The fault is scripted
// via the cluster's chaos schedule: a post-merge kill of a specific
// shuffle-map pass/partition, asserted to have actually fired via the
// recovery counters.
func TestFaultRecoveryReplayMatchesFaultFree(t *testing.T) {
	tree := gen.NewTree(5, 2, 4, 0.3, 0, gen.Rng(23))
	report := tree.Report()
	edges := gen.RMATDefault(256, gen.Rng(77))

	cases := []struct {
		name, src, view string
		cat             *catalog.Catalog
	}{
		{"SSSP(min)", queries.SSSP, "path", testCatalog(edges)},
		{"REACH(set)", queries.Reach, "reach", testCatalog(gen.Unweighted(edges))},
		{"Management(count)", queries.Management, "empcount", testCatalog(report)},
	}
	for _, c := range cases {
		clean := analyzeQ(t, c.src, c.cat)
		want, err := Distributed(clean.Clique, exec.NewContext(), testCluster(),
			DistOptions{StageCombination: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// Pass 1 of fixpoint.shufflemap merges the base case; occurrence is
		// the 0-based pass index, so these mirror the old "iteration 1,
		// partition 0" and "iteration 2, partition 3" failure points.
		for _, ev := range []cluster.ChaosEvent{
			{Stage: "fixpoint.shufflemap", Occurrence: 0, Part: 0, Kind: cluster.FaultPostMerge},
			{Stage: "fixpoint.shufflemap", Occurrence: 1, Part: 3, Kind: cluster.FaultPostMerge},
		} {
			prog := analyzeQ(t, c.src, c.cat)
			cl := chaosCluster(cluster.ChaosConfig{Schedule: []cluster.ChaosEvent{ev}})
			got, err := Distributed(prog.Clique, exec.NewContext(), cl,
				DistOptions{StageCombination: true})
			if err != nil {
				t.Fatalf("%s %+v: %v", c.name, ev, err)
			}
			m := cl.Metrics.Snapshot()
			if m.TaskRetries < 1 || m.RecoveredIterations < 1 {
				t.Fatalf("%s %+v: fault never fired (retries=%d recovered=%d)",
					c.name, ev, m.TaskRetries, m.RecoveredIterations)
			}
			if !got.Relations[c.view].EqualAsSet(want.Relations[c.view]) {
				t.Errorf("%s: replay after failure at %+v diverged (%d vs %d rows)",
					c.name, ev, got.Relations[c.view].Len(), want.Relations[c.view].Len())
			}
		}
	}
}

// TestNarrowedPartitionKey: both recursive rules join the view on column B
// only, so the full group key (A, B) is never covered and the seed planner
// fell back to broadcast. vet's co-partition analysis narrows the
// partition key to [B] — a subset of the group key, so grouping stays
// partition-local — and both rules co-partition. The distributed result
// must still match the exact local engine.
func TestNarrowedPartitionKey(t *testing.T) {
	const src = `
WITH recursive p (A, B, min() AS C) AS
    (SELECT Src, Dst, Cost FROM edge) UNION
    (SELECT p.A, edge.Dst, p.C + edge.Cost
     FROM p, edge WHERE p.B = edge.Src) UNION
    (SELECT edge.Src, p.B, p.C + edge.Cost
     FROM p, edge WHERE p.B = edge.Dst)
SELECT A, B, C FROM p`
	edges := gen.RMATDefault(48, gen.Rng(11))
	cat := testCatalog(edges)

	prog := analyzeQ(t, src, cat)
	plan, err := PlanDistributed(prog.Clique)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PartKey) != 1 || plan.PartKey[0] != 1 {
		t.Fatalf("PartKey = %v, want [1]", plan.PartKey)
	}
	for i, rp := range plan.Rules {
		if rp.Strategy != StrategyCoPartition {
			t.Errorf("rule %d: strategy = %v, want co-partition", i, rp.Strategy)
		}
	}

	ctxD := exec.NewContext()
	dist, err := Distributed(analyzeQ(t, src, cat).Clique, ctxD, testCluster(),
		DistOptions{StageCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	local, err := Local(analyzeQ(t, src, cat).Clique, exec.NewContext(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !local.Relations["p"].EqualAsSet(dist.Relations["p"]) {
		t.Errorf("narrowed-key distributed run disagrees with local (%d vs %d rows)",
			dist.Relations["p"].Len(), local.Relations["p"].Len())
	}
}

// TestSumSeedKeepsCancellingContributions pins the seed pre-combine's rule
// that an additive view's base rows stay uncombined. Group 1's base
// contributions +2 and -2 cancel: combined on the driver they would reach
// Merge as one zero increment on a fresh group, which derives nothing, so
// the group would vanish. Merged one by one they open the group and leave
// it at 0, as every evaluator must.
func TestSumSeedKeepsCancellingContributions(t *testing.T) {
	const src = `
WITH recursive s (K, sum() AS V) AS
    (SELECT Src, Cost FROM edge) UNION
    (SELECT edge.Dst, s.V FROM s, edge WHERE s.K = edge.Src AND edge.Dst > 100)
SELECT K, V FROM s`
	edges := relation.New("edge", gen.EdgeSchema())
	for _, e := range [][3]float64{{1, 5, 2}, {1, 6, -2}, {2, 7, 3}} {
		edges.Append(types.Row{types.Int(int64(e[0])), types.Int(int64(e[1])), types.Float(e[2])})
	}
	for name, rel := range runWays(t, src, testCatalog(edges), "s") {
		got := map[int64]float64{}
		for _, r := range rel.Rows {
			got[r[0].AsInt()] = r[1].AsFloat()
		}
		if v, ok := got[1]; !ok || v != 0 || len(got) != 2 || got[2] != 3 {
			t.Errorf("%s: view = %v, want group 1 at 0 and group 2 at 3", name, got)
		}
	}
}
