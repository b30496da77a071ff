package prem

import (
	"testing"

	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/sql/vet"
	"github.com/rasql/rasql-go/internal/types"
	"github.com/rasql/rasql-go/queries"
)

// These tests tie the two PreM checkers together: a Certified verdict from
// the static analyzer (internal/sql/vet) is a proof, so the dynamic GPtest
// must never observe a divergence on any input — and a statically Refuted
// query should be dynamically falsifiable on a small witness.

func agreeCatalog(t *testing.T, rels ...*relation.Relation) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, r := range rels {
		if err := cat.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func interRows(pairs ...[2]int64) *relation.Relation {
	rel := relation.New("inter", types.NewSchema(
		types.Col("S", types.KindInt), types.Col("E", types.KindInt)))
	for _, p := range pairs {
		rel.Append(types.Row{types.Int(p[0]), types.Int(p[1])})
	}
	return rel
}

// TestStaticCertifiedNeverContradicted: for every endo-min/max paper query
// the static verdict is Certified, and the dynamic GPtest on small
// generated inputs — cyclic Erdős graphs, symmetrized components, BOM
// trees, overlapping intervals — agrees (no divergence at any step; runs
// on cyclic inputs are budget-bounded, so Holds matters, not Converged).
func TestStaticCertifiedNeverContradicted(t *testing.T) {
	tree := gen.NewTree(4, 2, 3, 0.3, 0, gen.Rng(7))
	assbl, basic := tree.AssblBasic(20, gen.Rng(3))
	erdos := gen.Erdos(25, 0.12, gen.Rng(11))

	cases := []struct {
		name, src string
		cat       *catalog.Catalog
		iters     int
	}{
		{"SSSP", queries.SSSP, agreeCatalog(t, erdos), 25},
		{"APSP", queries.APSP, agreeCatalog(t, gen.Erdos(12, 0.2, gen.Rng(5))), 15},
		{"CCLabels", queries.CCLabels, agreeCatalog(t, gen.Symmetrized(gen.Unweighted(erdos))), 40},
		{"Delivery", queries.Delivery, agreeCatalog(t, assbl, basic), 0},
		{"Coalesce", queries.Coalesce,
			agreeCatalog(t, interRows([2]int64{1, 3}, [2]int64{2, 4}, [2]int64{3, 6}, [2]int64{8, 9})), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := analyzeQ(t, c.src, c.cat)
			static := vet.Analyze(prog)
			if static.Verdict() != vet.VerdictCertified {
				t.Fatalf("static verdict = %v, want certified\n%s", static.Verdict(), static)
			}
			dyn, err := Check(prog, exec.NewContext(), c.iters)
			if err != nil {
				t.Fatal(err)
			}
			if !dyn.Holds {
				t.Errorf("dynamic GPtest contradicts the static certificate: %s", dyn)
			}
		})
	}
}

// TestStaticRefutedIsDynamicallyFalsifiable: the order-reversing head is
// statically Refuted (RV002), and the parallel-edge witness graph actually
// exhibits the divergence dynamically: from (2,1) and (2,4), min keeps
// Cost 1, but the rule head edge.Cost − path.Cost derives different
// successor costs from the two, so the aggregated and un-aggregated runs
// split at step 2.
func TestStaticRefutedIsDynamicallyFalsifiable(t *testing.T) {
	const refuted = `
WITH recursive path (Dst, min() AS Cost) AS
    (SELECT 1, 0) UNION
    (SELECT edge.Dst, edge.Cost - path.Cost
     FROM path, edge
     WHERE path.Dst = edge.Src)
SELECT Dst, Cost FROM path`
	edge := relation.New("edge", gen.EdgeSchema())
	for _, r := range [][3]int64{{1, 2, 1}, {1, 2, 4}, {2, 3, 1}} {
		edge.Append(types.Row{types.Int(r[0]), types.Int(r[1]), types.Float(float64(r[2]))})
	}
	prog := analyzeQ(t, refuted, agreeCatalog(t, edge))

	static := vet.Analyze(prog)
	if static.Verdict() != vet.VerdictRefuted {
		t.Fatalf("static verdict = %v, want refuted\n%s", static.Verdict(), static)
	}
	found := false
	for _, d := range static.Diagnostics {
		if d.Code == "RV002" {
			found = true
		}
	}
	if !found {
		t.Fatalf("refutation carries no RV002 diagnostic\n%s", static)
	}

	dyn, err := Check(prog, exec.NewContext(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Holds {
		t.Errorf("dynamic GPtest missed the violation on the witness graph: %s", dyn)
	}
}
