package pregel

import (
	"testing"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/gap"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/types"
)

func testCluster() *cluster.QueryContext {
	return cluster.New(cluster.Config{Workers: 4, Partitions: 4}).NewQuery(nil)
}

func weighted(pairs ...[3]float64) *relation.Relation {
	rel := relation.New("edge", gen.EdgeSchema())
	for _, p := range pairs {
		rel.Append(types.Row{types.Int(int64(p[0])), types.Int(int64(p[1])), types.Float(p[2])})
	}
	return rel
}

// vertexValues renders per-vertex answers as (vertex, value) rows. Relations
// compare numbers by value, so int and float answers render alike.
func vertexValues[V int64 | float64](m map[int64]V) *relation.Relation {
	rel := relation.New("want", types.Schema{})
	for v, x := range m {
		rel.Append(types.Row{types.Int(v), types.Float(float64(x))})
	}
	return rel
}

func TestSSSPBothProfiles(t *testing.T) {
	edges := weighted(
		[3]float64{1, 2, 1}, [3]float64{1, 3, 4}, [3]float64{2, 3, 2},
		[3]float64{3, 4, 1}, [3]float64{4, 2, 5}, [3]float64{2, 5, 10}, [3]float64{5, 1, 1})
	want := vertexValues(map[int64]float64{1: 0, 2: 1, 3: 3, 4: 4, 5: 11})
	for _, prof := range []Profile{ProfileGiraph, ProfileGraphX} {
		got, steps, err := Run(testCluster(), edges, SSSP, Options{Profile: prof, Source: 1})
		if err != nil {
			t.Fatalf("%v: %v", prof, err)
		}
		if steps == 0 {
			t.Errorf("%v: no supersteps ran", prof)
		}
		if !got.EqualAsSet(want) {
			t.Errorf("%v: got %v want %v", prof, got.Sort(), want.Sort())
		}
	}
}

func TestReach(t *testing.T) {
	edges := weighted([3]float64{1, 2, 0}, [3]float64{2, 3, 0}, [3]float64{4, 5, 0})
	got, _, err := Run(testCluster(), edges, Reach, Options{Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromRows("want", types.Schema{}, []types.Row{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}})
	if !got.EqualAsSet(want) {
		t.Errorf("got %v want %v", got.Sort(), want.Sort())
	}
}

func TestCCMatchesSerial(t *testing.T) {
	g := gen.Symmetrized(gen.Unweighted(gen.RMATDefault(256, gen.Rng(42))))
	want := vertexValues(gap.NewCSR(g).CC())
	for _, prof := range []Profile{ProfileGiraph, ProfileGraphX} {
		got, _, err := Run(testCluster(), g, CC, Options{Profile: prof})
		if err != nil {
			t.Fatalf("%v: %v", prof, err)
		}
		if !got.EqualAsSet(want) {
			t.Errorf("%v: CC disagrees with serial label propagation", prof)
		}
	}
}

func TestGraphXRunsMoreStages(t *testing.T) {
	edges := gen.Symmetrized(gen.Unweighted(gen.RMATDefault(128, gen.Rng(1))))
	cGiraph, cGraphX := testCluster(), testCluster()
	if _, _, err := Run(cGiraph, edges, CC, Options{Profile: ProfileGiraph}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(cGraphX, edges, CC, Options{Profile: ProfileGraphX}); err != nil {
		t.Fatal(err)
	}
	sg := cGiraph.Metrics.Snapshot().StagesRun
	sx := cGraphX.Metrics.Snapshot().StagesRun
	if sx < 2*sg {
		t.Errorf("GraphX should run ~4x the stages per superstep: giraph=%d graphx=%d", sg, sx)
	}
}

func TestMaxSuperstepsGuard(t *testing.T) {
	edges := weighted([3]float64{1, 2, 1}, [3]float64{2, 1, 1})
	// CC on a two-node cycle converges quickly, so force failure with a
	// one-superstep cap on a longer chain.
	long := weighted([3]float64{1, 2, 1}, [3]float64{2, 3, 1}, [3]float64{3, 4, 1})
	if _, _, err := Run(testCluster(), long, SSSP, Options{Source: 1, MaxSupersteps: 1}); err == nil {
		t.Error("superstep cap should error")
	}
	if _, _, err := Run(testCluster(), edges, SSSP, Options{Source: 1}); err != nil {
		t.Errorf("small run should converge: %v", err)
	}
}

func TestMaxPropMatchesDeliverySemantics(t *testing.T) {
	// Sub-part → part edges; leaves carry days. The max must propagate to
	// every ancestor: part 0 waits for max(leaf days) in its subtree.
	edges := weighted(
		[3]float64{2, 1, 0}, [3]float64{3, 1, 0}, // parts 2,3 feed part 1
		[3]float64{1, 0, 0}, [3]float64{4, 0, 0}) // 1,4 feed 0
	init := map[int64]float64{2: 5, 3: 9, 4: 2}
	got, _, err := Run(testCluster(), edges, MaxProp, Options{InitValues: init})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]float64{2: 5, 3: 9, 4: 2, 1: 9, 0: 9}
	checkVals(t, got, want)
}

func TestSumUpMatchesManagementSemantics(t *testing.T) {
	// report edges Emp → Mgr: 2,3 report to 1; 4 reports to 2. Everyone
	// starts with their own count of 1; sums flow upward.
	edges := weighted([3]float64{2, 1, 0}, [3]float64{3, 1, 0}, [3]float64{4, 2, 0})
	init := map[int64]float64{1: 1, 2: 1, 3: 1, 4: 1}
	got, _, err := Run(testCluster(), edges, SumUp, Options{InitValues: init})
	if err != nil {
		t.Fatal(err)
	}
	// 4 → 1; 2 → 1+1(from 4)=2; 3 → 1; 1 → 1+2+1 = 4 (includes own 1).
	want := map[int64]float64{4: 1, 3: 1, 2: 2, 1: 4}
	checkVals(t, got, want)
}

func TestSumUpFactorMLM(t *testing.T) {
	// Sponsorship chain 3 → 2 → 1 with sales bonuses halved per level.
	edges := weighted([3]float64{3, 2, 0}, [3]float64{2, 1, 0})
	init := map[int64]float64{1: 10, 2: 20, 3: 30}
	got, _, err := Run(testCluster(), edges, SumUp, Options{Factor: 0.5})
	if err == nil && got.Len() == 0 {
		t.Log("no init values means empty result")
	}
	got, _, err = Run(testCluster(), edges, SumUp, Options{Factor: 0.5, InitValues: init})
	if err != nil {
		t.Fatal(err)
	}
	// bonus(2) = 20 + 0.5*30 = 35; bonus(1) = 10 + 0.5*35 = 27.5.
	want := map[int64]float64{3: 30, 2: 35, 1: 27.5}
	checkVals(t, got, want)
}

func checkVals(t *testing.T, got *relation.Relation, want map[int64]float64) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("got %d rows, want %d: %v", got.Len(), len(want), got.Sort())
	}
	for _, r := range got.Rows {
		if w, ok := want[r[0].AsInt()]; !ok || r[1].AsFloat() != w {
			t.Errorf("node %d = %v, want %v", r[0].AsInt(), r[1], w)
		}
	}
}
