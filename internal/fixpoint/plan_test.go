package fixpoint

import (
	"testing"

	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/types"
	"github.com/rasql/rasql-go/queries"
)

// TestReplanShuffledPartKeys pins the two partition-key paths of the
// decomposition ablation: an aggregate view shuffles on its group key, a
// set view on every column; either way every rule downgrades to a
// broadcast join and the plan loses its decomposed mark.
func TestReplanShuffledPartKeys(t *testing.T) {
	edges := relation.New("edge", gen.EdgeSchema())

	// APSP: decomposed aggregate view, group key [Src, Dst] = columns 0,1.
	prog := analyzeQ(t, queries.APSP, testCatalog(edges))
	orig, err := PlanDistributed(prog.Clique)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Decomposed {
		t.Fatal("precondition: APSP must plan decomposed")
	}
	p := replanShuffled(prog.Clique)
	if p.Decomposed {
		t.Error("replanShuffled must clear the decomposed mark")
	}
	if want := prog.Clique.Views[0].GroupIdx; !analyze.SameColumns(p.PartKey, want) {
		t.Errorf("agg part key = %v, want group key %v", p.PartKey, want)
	}
	for i, rp := range p.Rules {
		if rp.Strategy != StrategyBroadcast {
			t.Errorf("agg rule %d strategy = %v, want broadcast", i, rp.Strategy)
		}
	}

	// TC: decomposed set view — the shuffled replan keys on all columns.
	prog = analyzeQ(t, queries.TC, testCatalog(edges))
	p = replanShuffled(prog.Clique)
	v := prog.Clique.Views[0]
	if len(p.PartKey) != v.Schema.Len() {
		t.Errorf("set part key = %v, want all %d columns", p.PartKey, v.Schema.Len())
	}
	for i, rp := range p.Rules {
		if rp.Strategy != StrategyBroadcast {
			t.Errorf("set rule %d strategy = %v, want broadcast", i, rp.Strategy)
		}
	}
}

// TestDeltaModeDecisions pins the three delta-consumption modes a rule can
// take, driving deltaMode directly on analyzed rules.
func TestDeltaModeDecisions(t *testing.T) {
	edges := relation.New("edge", gen.EdgeSchema())
	plain := relation.New("edge", types.NewSchema(
		types.Col("Src", types.KindInt), types.Col("Dst", types.KindInt)))
	report := relation.New("report", types.NewSchema(
		types.Col("Emp", types.KindInt), types.Col("Mgr", types.KindInt)))

	// An additive view whose head emits a constant instead of aggregating
	// the recursive value: only first derivations may feed the rule.
	const constHeadCount = `
WITH recursive r (Dst, count() AS C) AS
    (SELECT 1, 1) UNION
    (SELECT edge.Dst, 1 FROM r, edge WHERE r.Dst = edge.Src)
SELECT Dst, C FROM r`

	cases := []struct {
		name, src          string
		rel                *relation.Relation
		wantInc, wantFresh bool
	}{
		// count over a recursive count, head propagates the value:
		// increments flow through (exact delta semantics).
		{"management-increments", queries.Management, report, true, false},
		// sum propagating the recursive sum: increments too.
		{"count-paths-increments", queries.CountPaths, plain, true, false},
		// additive agg with a constant head: new groups only.
		{"const-head-new-groups", constHeadCount, plain, false, true},
		// min is not additive: plain delta rows.
		{"sssp-plain", queries.SSSP, edges, false, false},
		// set semantics: plain delta rows.
		{"tc-plain", queries.TC, edges, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := analyzeQ(t, c.src, testCatalog(c.rel))
			v := prog.Clique.Views[0]
			if len(v.RecRules) == 0 {
				t.Fatal("no recursive rule")
			}
			inc, fresh := deltaMode(v.RecRules[0])
			if inc != c.wantInc || fresh != c.wantFresh {
				t.Errorf("deltaMode = (inc=%v, newGroupsOnly=%v), want (%v, %v)",
					inc, fresh, c.wantInc, c.wantFresh)
			}
		})
	}
}
