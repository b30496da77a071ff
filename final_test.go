package rasql_test

import (
	"fmt"
	"strings"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/gen"
)

// The final-stage differential. A final SELECT over the one recursive view
// runs as the fixpoint's last stage: each partition filters its state and
// ships projected rows or partial aggregates, and the driver merges them.
// The engine must answer exactly what the collect plus exec.Query route
// answers (rasql.ExecCollect), rows in the same order, and what the local
// engine answers as a set, at every partition count, evaluation mode and
// fault schedule.

const (
	finalSSSP = `WITH recursive path (Dst, min() AS Cost) AS (SELECT 1, 0) UNION
	(SELECT edge.Dst, path.Cost + edge.Cost FROM path, edge WHERE path.Dst = edge.Src) `
	finalTC = `WITH recursive tc (Src, Dst) AS (SELECT Src, Dst FROM edge) UNION
	(SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src) `
	finalCC = `WITH recursive cc (Src, min() AS CmpId) AS (SELECT Src, Src FROM edge) UNION
	(SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = edge.Src) `
	finalFriends = `WITH recursive r (P) AS (SELECT OrgName FROM organizer) UNION
	(SELECT friend.Fname FROM r, friend WHERE r.P = friend.Pname) `
)

// finalCases are the 17 example programs plus final queries that exercise
// every shape of the final stage over the view — WHERE, projection, GROUP
// BY with min/max/count, count(distinct), min/max(distinct), HAVING, a
// WHERE that matches nothing, a group key that is NULL for some rows — and
// the shapes that keep the driver's route.
func finalCases() []exampleCase {
	rmat := func() []*rasql.Relation { return []*rasql.Relation{gen.RMATDefault(40, gen.Rng(3))} }
	grid := func() []*rasql.Relation { return []*rasql.Relation{gen.Unweighted(gen.Grid(5, gen.Rng(2)))} }
	cc := func() []*rasql.Relation {
		return []*rasql.Relation{gen.Symmetrized(gen.Unweighted(gen.RMATDefault(60, gen.Rng(4))))}
	}
	cases := exampleCases()
	for _, v := range []struct {
		name, view, final string
		tables            func() []*rasql.Relation
	}{
		{"where", finalSSSP, `SELECT Dst, Cost FROM path WHERE Cost > 2`, rmat},
		{"projection", finalSSSP, `SELECT Cost * 2, Dst + 1 FROM path`, rmat},
		{"global-aggs", finalSSSP, `SELECT count(*), min(Cost), max(Cost), count(Dst) FROM path`, rmat},
		{"matches-nothing", finalSSSP, `SELECT count(*), min(Cost), max(Dst) FROM path WHERE Cost < 0`, rmat},
		{"empty-projection", finalSSSP, `SELECT Dst, Cost FROM path WHERE Dst < 0`, rmat},
		{"count-distinct", finalSSSP, `SELECT count(distinct Cost), count(distinct Dst), count(*) FROM path`, rmat},
		{"group-by", finalTC, `SELECT Src, count(*), min(Dst), max(Dst) FROM tc GROUP BY Src`, grid},
		{"group-distinct-having", finalTC, `SELECT Src, count(distinct Dst) FROM tc GROUP BY Src HAVING count(*) > 3`, grid},
		{"group-where", finalTC, `SELECT Dst, count(distinct Src), max(Src) FROM tc WHERE Src <> Dst GROUP BY Dst`, grid},
		{"group-expr", finalTC, `SELECT Dst - Src, count(*) FROM tc GROUP BY Dst - Src`, grid},
		{"group-no-agg", finalTC, `SELECT Src FROM tc GROUP BY Src`, grid},
		{"group-matches-nothing", finalTC, `SELECT Src, count(*) FROM tc WHERE Src < 0 GROUP BY Src`, grid},
		{"group-two-distinct", finalSSSP, `SELECT Dst % 3, count(distinct Dst), count(distinct Cost), min(Cost), max(Cost) FROM path GROUP BY Dst % 3 HAVING count(distinct Cost) > 1`, rmat},
		{"group-min-distinct", finalTC, `SELECT Src, min(distinct Dst), max(distinct Dst), count(distinct Dst) FROM tc GROUP BY Src`, grid},
		{"group-null-key", finalTC, `SELECT Src / (Dst - 2), count(*), min(Dst), max(Src) FROM tc GROUP BY Src / (Dst - 2)`, grid},
		{"count-star", finalTC, `SELECT count(*) FROM tc`, grid},
		{"agg-view-groups", finalCC, `SELECT CmpId, count(*), min(Src), max(Src) FROM cc GROUP BY CmpId`, cc},
		{"agg-view-distinct", finalCC, `SELECT count(distinct CmpId) FROM cc WHERE Src > 3`, cc},
		{"strings", finalFriends, `SELECT count(*), min(P), max(P), count(distinct P) FROM r`, partyTables},
		{"strings-where", finalFriends, `SELECT P FROM r WHERE P <> 'x'`, partyTables},
		// The driver's route: sum, avg, DISTINCT, ORDER BY and LIMIT.
		{"sum", finalTC, `SELECT Src, sum(Dst) FROM tc GROUP BY Src`, grid},
		{"avg", finalTC, `SELECT avg(Dst) FROM tc`, grid},
		{"distinct", finalTC, `SELECT DISTINCT Src FROM tc`, grid},
		{"order-limit", finalSSSP, `SELECT Dst, Cost FROM path ORDER BY Cost, Dst LIMIT 5`, rmat},
	} {
		cases = append(cases, exampleCase{v.name, v.view + v.final, v.tables})
	}
	return cases
}

// finalModes are the fixpoint runners the final stage follows: the combined
// and two-stage BSP loops (decomposable plans take the decomposed runner)
// and the barrier-relaxed router.
var finalModes = []struct {
	name string
	cfg  func() rasql.Config
}{
	{"bsp", func() rasql.Config { return rasql.Config{} }},
	{"two-stage", func() rasql.Config { return rasql.Config{RawOptimizations: true} }},
	{"ssp:2", func() (c rasql.Config) { c.Fixpoint.Mode, c.Fixpoint.Staleness = rasql.ModeSSP, 2; return c }},
	{"async", func() (c rasql.Config) { c.Fixpoint.Mode = rasql.ModeAsync; return c }},
}

func finalEngine(tc exampleCase, cfg rasql.Config) *rasql.Engine {
	eng := rasql.New(cfg)
	for _, tab := range tc.tables() {
		eng.MustRegister(tab.Clone())
	}
	return eng
}

// TestFinalStageDifferential: every program, at 1, 2, 5 and 9 partitions,
// under each mode, fault-free and under two fault seeds. With sequential
// stages the view's partitions hold their rows in the same order on both
// routes, so the final stage must give the collect route's rows exactly;
// with parallel stages it must give the local engine's as a set.
func TestFinalStageDifferential(t *testing.T) {
	var total rasql.MetricsSnapshot
	for _, tc := range finalCases() {
		local := rasql.Config{ForceLocal: true}
		want, err := finalEngine(tc, local).Query(tc.query)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		for _, m := range finalModes {
			for _, parts := range []int{1, 2, 5, 9} {
				for _, seed := range []int64{0, 1, 2} {
					cfg := m.cfg()
					cfg.Cluster.Workers, cfg.Cluster.Partitions = 4, parts
					if seed != 0 {
						cfg.Cluster.Chaos = rasql.ChaosConfig{Seed: seed, Rate: 0.1}
					}
					label := fmt.Sprintf("%s %s parts=%d seed=%d", tc.name, m.name, parts, seed)

					cfg.Cluster.SequentialStages = true
					eng := finalEngine(tc, cfg)
					got, err := eng.Query(tc.query)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					total = total.Add(eng.Metrics())
					old, err := rasql.ExecCollect(finalEngine(tc, cfg), tc.query)
					if err != nil {
						t.Fatalf("%s: collect route: %v", label, err)
					}
					if msg := sameRows(got, old); msg != "" {
						t.Errorf("%s: final stage differs from the collect route: %s\n got: %v\nwant: %v", label, msg, got.Rows, old.Rows)
					}

					cfg.Cluster.SequentialStages = false
					got, err = finalEngine(tc, cfg).Query(tc.query)
					if err != nil {
						t.Fatalf("%s: parallel: %v", label, err)
					}
					if !got.EqualAsSet(want) {
						t.Errorf("%s: parallel stages differ from the local engine\n got: %v\nwant: %v", label, got.Sort(), want.Sort())
					}
				}
			}
		}
	}
	if total.TaskRetries == 0 {
		t.Errorf("no injected fault fired: %s", total)
	}
}

// sameRows reports how a and b differ in schema or rows, order included, or
// "" when they do not.
func sameRows(a, b *rasql.Relation) string {
	if a.Schema.String() != b.Schema.String() {
		return fmt.Sprintf("schema %s, want %s", a.Schema, b.Schema)
	}
	if a.Len() != b.Len() {
		return fmt.Sprintf("%d rows, want %d", a.Len(), b.Len())
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Sprintf("row %d is %v, want %v", i, a.Rows[i], b.Rows[i])
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return fmt.Sprintf("row %d is %v, want %v", i, a.Rows[i], b.Rows[i])
			}
		}
	}
	return ""
}

// TestFinalStageRetryCountsOnce: an attempt of every final-stage task dies
// after it has counted its partition, and the retry must start from a reset
// scratch — a count taken twice doubles the answer.
func TestFinalStageRetryCountsOnce(t *testing.T) {
	tc := exampleCase{"tc", finalTC + `SELECT Src, count(*), count(distinct Dst) FROM tc GROUP BY Src`,
		func() []*rasql.Relation { return []*rasql.Relation{gen.Unweighted(gen.Grid(4, gen.Rng(1)))} }}
	cfg := rasql.Config{Cluster: rasql.ClusterConfig{Workers: 4, Partitions: 4}}
	want, err := finalEngine(tc, cfg).Query(tc.query)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		cfg.Cluster.Chaos.Schedule = append(cfg.Cluster.Chaos.Schedule, rasql.ChaosEvent{
			Stage: "fixpoint.final", Occurrence: -1, Part: p, Attempt: 0, Kind: rasql.FaultPostMerge})
	}
	eng := finalEngine(tc, cfg)
	got, err := eng.Query(tc.query)
	if err != nil {
		t.Fatal(err)
	}
	if retries := eng.Metrics().TaskRetries; retries != 4 {
		t.Errorf("%d final-stage retries, want 4", retries)
	}
	if msg := sameRows(got, want); msg != "" {
		t.Errorf("retried final stage: %s", msg)
	}
}

// TestExplainNamesFinalStage: EXPLAIN says where the final query runs — the
// final stage and what it ships, or why the driver collects the view.
func TestExplainNamesFinalStage(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(gen.Unweighted(gen.Grid(3, gen.Rng(1))))
	for _, c := range []struct{ final, want string }{
		{`SELECT count(*) FROM tc`, "Final stage: fixpoint.final, partial aggregates"},
		{`SELECT Src FROM tc WHERE Dst > 2`, "Final stage: fixpoint.final, projected rows"},
		{`SELECT Src, sum(Dst) FROM tc GROUP BY Src`, "Final stage: none, the driver collects the view (sum() would merge partial sums)"},
		{`SELECT Src FROM tc ORDER BY Src`, "Final stage: none, the driver collects the view (ORDER BY)"},
		{`SELECT a.Src FROM tc a, tc b WHERE a.Dst = b.Src`, "Final stage: none, the driver collects the view (reads 2 sources)"},
	} {
		out, err := eng.Explain(finalTC + c.final)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, c.want+"\n") {
			t.Errorf("EXPLAIN of %q lacks %q:\n%s", c.final, c.want, out)
		}
	}
	local := rasql.New(rasql.Config{ForceLocal: true})
	local.MustRegister(gen.Unweighted(gen.Grid(3, gen.Rng(1))))
	out, err := local.Explain(finalTC + `SELECT count(*) FROM tc`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "Final stage: none, the local engine's view feeds the driver\n"; !strings.Contains(out, want) {
		t.Errorf("EXPLAIN under ForceLocal lacks %q:\n%s", want, out)
	}
}
