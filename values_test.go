package rasql_test

import (
	"math"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/queries"
)

// The value-semantics differential: every keyed structure — the recursive
// state, the map-side combine, the final stage, the join build sides, exec
// and Local — matches keys under one relation (AppendKey's bytes), and
// every join leaves out the rows whose key holds a NULL. So every evaluator
// and mode, at every partition count, gives Local's answer on inputs where
// two relations would part.

// valueModes is every evaluator and mode: the engine configurations of
// runAll, the uncompressed (hashed) broadcast, and the barrier-relaxed
// modes.
func valueModes(t *testing.T) map[string]rasql.Config {
	modes := engineConfigs()
	modes["dist-hashed-broadcast"] = rasql.Config{RawOptimizations: true}
	for _, m := range relaxedModes {
		modes[m] = relaxedConfig(t, m)
	}
	return modes
}

// agreeWithLocal runs query over tables under every mode of valueModes, the
// distributed ones at 1 to 8 partitions, fails wherever an answer differs
// from Local's, and returns Local's answer.
func agreeWithLocal(t *testing.T, tables []*rasql.Relation, query string) *rasql.Relation {
	t.Helper()
	run := func(cfg rasql.Config) *rasql.Relation {
		eng := rasql.New(cfg)
		for _, tab := range tables {
			eng.MustRegister(tab.Clone())
		}
		got, err := eng.Query(query)
		if err != nil {
			t.Fatalf("%v", err)
		}
		return got
	}
	want := run(rasql.Config{ForceLocal: true})
	for name, cfg := range valueModes(t) {
		for parts := 1; parts <= 8; parts++ {
			if cfg.ForceLocal || cfg.Fixpoint.Naive {
				if parts > 1 {
					break // the local evaluators do not partition
				}
			} else {
				cfg.Cluster.Workers, cfg.Cluster.Partitions = min(parts, 3), parts
			}
			if got := run(cfg); !got.EqualAsSet(want) {
				t.Errorf("%s at %d partitions differs from Local\n got: %v\nwant: %v", name, parts, got.Sort(), want.Clone().Sort())
			}
		}
	}
	return want
}

// TestNullJoinsNothing: NULL = NULL is not true, so a NULL join key matches
// no row in any join, while grouping, UNION and the recursive set keep the
// NULLs as one group (ROADMAP item 24(iv)). In SSSP the path to the NULL
// node is one group and leads nowhere, so (NULL, 4, 0.5) does not shorten
// node 4's path; in CC the NULL node keeps its own label, and its edges
// neither hand that label on nor merge {1, 2} with {3, 4}.
func TestNullJoinsNothing(t *testing.T) {
	pair := rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("Dst", rasql.KindInt))
	null := rasql.Null()
	edges := relOf("edge", pair, rasql.Row{rasql.Int(1), null}, rasql.Row{null, rasql.Int(2)}, iRow(2, 3))
	weighted := weightedEdges()
	weighted.Append(rasql.Row{rasql.Int(2), null, rasql.Float(1)})
	weighted.Append(rasql.Row{null, rasql.Int(4), rasql.Float(0.5)})
	ccEdges := relOf("edge", pair, iRow(1, 2), iRow(2, 1), iRow(3, 4), iRow(4, 3),
		rasql.Row{null, rasql.Int(2)}, rasql.Row{null, rasql.Int(3)})
	for _, tc := range []struct {
		name  string
		edges *rasql.Relation
		query string
		want  []rasql.Row
	}{
		{"self-join count", edges, `SELECT count(*) FROM edge x, edge y WHERE x.Dst = y.Src`, []rasql.Row{iRow(1)}},
		{"TC", edges, queries.TC, []rasql.Row{
			{rasql.Int(1), null}, {null, rasql.Int(2)}, iRow(2, 3), {null, rasql.Int(3)}}},
		{"WHERE Src = Src", edges, `SELECT Src, Dst FROM edge WHERE Src = Src`, []rasql.Row{
			{rasql.Int(1), null}, iRow(2, 3)}},
		{"SSSP", weighted, queries.SSSP, []rasql.Row{
			{rasql.Int(1), rasql.Float(0)}, {rasql.Int(2), rasql.Float(1)}, {rasql.Int(3), rasql.Float(3)},
			{rasql.Int(4), rasql.Float(4)}, {rasql.Int(5), rasql.Float(11)}, {null, rasql.Float(2)}}},
		{"CC", ccEdges, queries.CCLabels, []rasql.Row{iRow(1, 1), iRow(2, 1), iRow(3, 3), iRow(4, 3), {null, null}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := agreeWithLocal(t, []*rasql.Relation{tc.edges}, tc.query)
			if want := relOf("want", got.Schema, tc.want...); !got.EqualAsSet(want) {
				t.Errorf("got %v, want %v", got.Sort(), want.Sort())
			}
		})
	}
}

// TestKeyRelationEngineMatchesLocal: TC over keys where the engine's old
// join equality (Value.Equal) and the key bytes parted. Local's answer is
// today's relation: numerics compare by their float64 bits, so 2^53 meets
// 2^53+1 and NaN meets NaN, and -0.0 does not meet +0.0. SQL's answer for
// 2^53 is 2 rows and for ±0 is 3; they wait for exact ints and one float
// order (ROADMAP item 24(i) and (ii)), which change the key relation in one
// place, so the engine and Local flip together.
func TestKeyRelationEngineMatchesLocal(t *testing.T) {
	const p53 = 1 << 53
	ints := rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("Dst", rasql.KindInt))
	floats := rasql.NewSchema(rasql.Col("Src", rasql.KindFloat), rasql.Col("Dst", rasql.KindFloat))
	for _, tc := range []struct {
		name  string
		edges *rasql.Relation
		local int
	}{
		{"2^53", relOf("edge", ints, iRow(1, p53), iRow(p53+1, 5)), 3},
		{"NaN", relOf("edge", floats,
			rasql.Row{rasql.Float(1), rasql.Float(math.NaN())},
			rasql.Row{rasql.Float(math.NaN()), rasql.Float(5)}), 3},
		{"-0.0", relOf("edge", floats,
			rasql.Row{rasql.Float(1), rasql.Float(math.Copysign(0, -1))},
			rasql.Row{rasql.Float(0), rasql.Float(5)}), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := agreeWithLocal(t, []*rasql.Relation{tc.edges}, queries.TC); len(got.Rows) != tc.local {
				t.Errorf("Local's TC has %d rows, want %d", len(got.Rows), tc.local)
			}
		})
	}
}

// TestRecursiveAggregatesIgnoreNull: SQL's aggregates ignore NULL inputs,
// so a NULL contribution to a recursive min(), max() or sum() neither wins
// nor spreads, and a group whose only contributions are NULL stays NULL
// (ROADMAP item 24(v)). In SSSP the NULL-cost edge (1, 4) gives node 4 a
// NULL path that the real one replaces; in CC the NULL node, which joins
// nothing, takes node 2's label 1 over its own NULL; in MLM member 3's
// NULL sale adds nothing to its bonus — under local-naive too, which sums
// through relation.Aggregate.
func TestRecursiveAggregatesIgnoreNull(t *testing.T) {
	null := rasql.Null()
	weighted := weightedEdges()
	weighted.Append(rasql.Row{rasql.Int(1), rasql.Int(4), null})
	pair := rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("Dst", rasql.KindInt))
	ccEdges := relOf("edge", pair, iRow(1, 2), iRow(2, 1),
		rasql.Row{rasql.Int(2), null}, rasql.Row{null, rasql.Int(2)},
		rasql.Row{rasql.Int(3), null}, rasql.Row{null, rasql.Int(3)})
	sales := relOf("sales", rasql.NewSchema(rasql.Col("M", rasql.KindInt), rasql.Col("P", rasql.KindFloat)),
		rasql.Row{rasql.Int(1), rasql.Float(100)}, rasql.Row{rasql.Int(2), rasql.Float(200)},
		rasql.Row{rasql.Int(3), rasql.Float(300)}, rasql.Row{rasql.Int(3), null})
	sponsor := relOf("sponsor", rasql.NewSchema(rasql.Col("M1", rasql.KindInt), rasql.Col("M2", rasql.KindInt)),
		iRow(1, 2), iRow(2, 3))
	for _, tc := range []struct {
		name   string
		tables []*rasql.Relation
		query  string
		want   []rasql.Row
	}{
		{"SSSP", []*rasql.Relation{weighted}, queries.SSSP, []rasql.Row{
			{rasql.Int(1), rasql.Float(0)}, {rasql.Int(2), rasql.Float(1)}, {rasql.Int(3), rasql.Float(3)},
			{rasql.Int(4), rasql.Float(4)}, {rasql.Int(5), rasql.Float(11)}}},
		{"CC", []*rasql.Relation{ccEdges}, queries.CCLabels, []rasql.Row{
			iRow(1, 1), iRow(2, 1), iRow(3, 3), {null, rasql.Int(1)}}},
		{"MLM", []*rasql.Relation{sales, sponsor}, queries.MLM, []rasql.Row{
			{rasql.Int(1), rasql.Float(27.5)}, {rasql.Int(2), rasql.Float(35)}, {rasql.Int(3), rasql.Float(30)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := agreeWithLocal(t, tc.tables, tc.query)
			if want := relOf("want", got.Schema, tc.want...); !got.EqualAsSet(want) {
				t.Errorf("got %v, want %v", got.Sort(), want.Sort())
			}
		})
	}
}
