package fixpoint

import (
	"slices"
	"testing"

	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/catalog"
	"github.com/rasql/rasql-go/internal/sql/vet"
	"github.com/rasql/rasql-go/internal/types"
	"github.com/rasql/rasql-go/queries"
)

// paperCatalog holds every base table the library queries reference, with
// the schemas vet's own tests use (schemas only; planning reads no rows).
func paperCatalog() *catalog.Catalog {
	pair := func(name, a, b string) *relation.Relation {
		return relation.New(name, types.NewSchema(types.Col(a, types.KindInt), types.Col(b, types.KindInt)))
	}
	return testCatalog(
		relation.New("edge", gen.EdgeSchema()),
		pair("report", "Emp", "Mgr"),
		relation.New("sales", types.NewSchema(
			types.Col("M", types.KindInt), types.Col("P", types.KindFloat))),
		pair("sponsor", "M1", "M2"),
		pair("inter", "S", "E"),
		relation.New("organizer", types.NewSchema(types.Col("OrgName", types.KindString))),
		relation.New("friend", types.NewSchema(
			types.Col("Pname", types.KindString), types.Col("Fname", types.KindString))),
		relation.New("shares", types.NewSchema(
			types.Col("By", types.KindString), types.Col("Of", types.KindString),
			types.Col("Percent", types.KindInt))),
		pair("rel", "Parent", "Child"),
		pair("basic", "Part", "Days"),
		pair("assbl", "Part", "Spart"),
	)
}

// narrowedKeyQuery joins the recursive view on only the second of its two
// group columns, in both recursive rules: the full group-by is never
// covered, but column 1 alone is (vet's RV021 example).
const narrowedKeyQuery = `
WITH recursive p (A, B, min() AS C) AS
    (SELECT Src, Dst, Cost FROM edge) UNION
    (SELECT p.A, edge.Dst, p.C + edge.Cost
     FROM p, edge WHERE p.B = edge.Src) UNION
    (SELECT edge.Src, p.B, p.C + edge.Cost
     FROM p, edge WHERE p.B = edge.Dst)
SELECT A, B, C FROM p`

// aggregateJoinQuery joins on the aggregate column, which lies outside the
// group key: no narrowing applies and the rule reshuffles (RV020).
const aggregateJoinQuery = `
WITH recursive p (A, min() AS C) AS
    (SELECT Src, Cost FROM edge) UNION
    (SELECT edge.Dst, p.C FROM p, edge WHERE p.C = edge.Cost)
SELECT A, C FROM p`

// tiedKeyQuery offers two one-column keys, [1] and [0]: the tie goes to
// the lexicographically smallest.
const tiedKeyQuery = `
WITH recursive p (A, B, min() AS C) AS
    (SELECT Src, Dst, Cost FROM edge) UNION
    (SELECT e1.Dst, e2.Dst, p.C + e1.Cost FROM p, edge e1, edge e2
     WHERE p.B = e1.Src AND p.A = e2.Src)
SELECT A, B, C FROM p`

// widestKeyQuery offers [1], [0] and [0 2]: the longest key wins.
const widestKeyQuery = `
WITH recursive p (A, B, D, min() AS C) AS
    (SELECT Src, Dst, Src, Cost FROM edge) UNION
    (SELECT e1.Dst, e2.Dst, e3.Dst, p.C + e1.Cost FROM p, edge e1, edge e2, edge e3
     WHERE p.B = e1.Src AND p.A = e2.Src AND p.A = e3.Src AND p.D = e3.Dst)
SELECT A, B, D, C FROM p`

// TestPlanAndVetShapes pins what the partition key decides, for every
// library query and the contrived narrowing cases above: the distributed
// plan as EXPLAIN prints it (or why the clique runs locally), the
// decomposition-ablation replan's key and strategies, the sorted vet codes,
// and the co-partition diagnostics (RV020–RV029) word for word.
func TestPlanAndVetShapes(t *testing.T) {
	cases := []struct {
		name, src   string
		plan        string
		reason      string
		shuffledKey []int
		shuffled    []string
		codes       []string
		partition   []string
	}{
		{
			name: "SSSP", src: queries.SSSP,
			plan: "Fixpoint[path] partitionKey=[0] decomposed=false\n" +
				"  aggregate: min() AS Cost, implicit group by [0]\n" +
				"  rule 0: strategy=co-partition copartBase=edge on [0]\n",
			shuffledKey: []int{0},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV001"},
		},
		{
			name: "CC", src: queries.CC,
			plan: "Fixpoint[cc] partitionKey=[0] decomposed=false\n" +
				"  aggregate: min() AS CmpId, implicit group by [0]\n" +
				"  rule 0: strategy=co-partition copartBase=edge on [0]\n",
			shuffledKey: []int{0},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV001"},
		},
		{
			name: "CCLabels", src: queries.CCLabels,
			plan: "Fixpoint[cc] partitionKey=[0] decomposed=false\n" +
				"  aggregate: min() AS CmpId, implicit group by [0]\n" +
				"  rule 0: strategy=co-partition copartBase=edge on [0]\n",
			shuffledKey: []int{0},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV001"},
		},
		{
			name: "CountPaths", src: queries.CountPaths,
			plan: "Fixpoint[cpaths] partitionKey=[0] decomposed=false\n" +
				"  aggregate: sum() AS Cnt, implicit group by [0]\n" +
				"  rule 0: strategy=co-partition copartBase=edge on [0] delta=increments\n",
			shuffledKey: []int{0},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV001", "RV010"},
		},
		{
			name: "Management", src: queries.Management,
			plan: "Fixpoint[empCount] partitionKey=[0] decomposed=false\n" +
				"  aggregate: count() AS Cnt, implicit group by [0]\n" +
				"  rule 0: strategy=co-partition copartBase=report on [0] delta=increments\n",
			shuffledKey: []int{0},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV001", "RV010"},
		},
		{
			name: "MLM", src: queries.MLM,
			plan: "Fixpoint[bonus] partitionKey=[0] decomposed=false\n" +
				"  aggregate: sum() AS B, implicit group by [0]\n" +
				"  rule 0: strategy=co-partition copartBase=sponsor on [1] delta=increments\n",
			shuffledKey: []int{0},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV003", "RV010"},
		},
		{
			name: "Coalesce", src: queries.Coalesce,
			plan: "Fixpoint[coal] partitionKey=[0] decomposed=true\n" +
				"  aggregate: max() AS E, implicit group by [0]\n" +
				"  rule 0: strategy=decomposed broadcast=inter on []\n",
			shuffledKey: []int{0},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV001"},
		},
		{
			name: "Party", src: queries.Party,
			reason: "mutual recursion over 2 views",
			codes:  []string{"RV003", "RV010"},
		},
		{
			name: "CompanyControl", src: queries.CompanyControl,
			reason: "mutual recursion over 2 views",
			codes:  []string{"RV003", "RV010"},
		},
		{
			name: "SG", src: queries.SG,
			plan: "Fixpoint[sg] partitionKey=[0 1] decomposed=false\n" +
				"  rule 0: strategy=broadcast broadcast=a on [0] broadcast=b on [0]\n",
			shuffledKey: []int{0, 1},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV020"},
			partition: []string{
				"RV020 warning [sg recursive rule 1]: recursive join keys do not cover the partition key [0 1]: the delta cannot stay co-partitioned and reshuffles (broadcast join) every iteration\n    hint: join the recursive reference on its grouping columns, or carry the partition key through the head to enable decomposed execution",
			},
		},
		{
			name: "Reach", src: queries.Reach,
			plan: "Fixpoint[reach] partitionKey=[0] decomposed=false\n" +
				"  rule 0: strategy=co-partition copartBase=edge on [0]\n",
			shuffledKey: []int{0},
			shuffled:    []string{"broadcast"},
		},
		{
			name: "APSP", src: queries.APSP,
			plan: "Fixpoint[path] partitionKey=[0] decomposed=true\n" +
				"  aggregate: min() AS Cost, implicit group by [0 1]\n" +
				"  rule 0: strategy=decomposed broadcast=edge on [0]\n",
			shuffledKey: []int{0, 1},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV001"},
		},
		{
			name: "TC", src: queries.TC,
			plan: "Fixpoint[tc] partitionKey=[0] decomposed=true\n" +
				"  rule 0: strategy=decomposed broadcast=edge on [0]\n",
			shuffledKey: []int{0, 1},
			shuffled:    []string{"broadcast"},
		},
		{
			name: "Delivery", src: queries.Delivery,
			plan: "Fixpoint[waitfor] partitionKey=[0] decomposed=false\n" +
				"  aggregate: max() AS Days, implicit group by [0]\n" +
				"  rule 0: strategy=co-partition copartBase=assbl on [1]\n",
			shuffledKey: []int{0},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV001"},
		},
		{
			name: "DeliveryStratified", src: queries.DeliveryStratified,
			plan: "Fixpoint[waitfor] partitionKey=[1] decomposed=true\n" +
				"  rule 0: strategy=decomposed broadcast=assbl on [1]\n",
			shuffledKey: []int{0, 1},
			shuffled:    []string{"broadcast"},
		},
		{
			name: "SSSPStratified", src: queries.SSSPStratified,
			plan: "Fixpoint[path] partitionKey=[0 1] decomposed=false\n" +
				"  rule 0: strategy=broadcast broadcast=edge on [0]\n",
			shuffledKey: []int{0, 1},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV020"},
			partition: []string{
				"RV020 warning [path recursive rule 1]: recursive join keys do not cover the partition key [0 1]: the delta cannot stay co-partitioned and reshuffles (broadcast join) every iteration\n    hint: join the recursive reference on its grouping columns, or carry the partition key through the head to enable decomposed execution",
			},
		},
		{
			name: "CCStratified", src: queries.CCStratified,
			plan: "Fixpoint[cc] partitionKey=[1] decomposed=true\n" +
				"  rule 0: strategy=decomposed broadcast=edge on [0]\n",
			shuffledKey: []int{0, 1},
			shuffled:    []string{"broadcast"},
		},
		{
			name: "ReachStratified", src: queries.ReachStratified,
			plan: "Fixpoint[reach] partitionKey=[0] decomposed=false\n" +
				"  rule 0: strategy=co-partition copartBase=edge on [0]\n",
			shuffledKey: []int{0},
			shuffled:    []string{"broadcast"},
		},
		{
			name: "narrowed", src: narrowedKeyQuery,
			plan: "Fixpoint[p] partitionKey=[1] decomposed=false\n" +
				"  aggregate: min() AS C, implicit group by [0 1]\n" +
				"  rule 0: strategy=co-partition copartBase=edge on [0]\n" +
				"  rule 1: strategy=co-partition copartBase=edge on [1]\n",
			shuffledKey: []int{0, 1},
			shuffled:    []string{"broadcast", "broadcast"},
			codes:       []string{"RV001", "RV021"},
			partition: []string{
				"RV021 info [p]: partition key narrowed from the full group-by [0 1] to [1] so every recursive rule joins co-partitioned; the planner applies this automatically",
			},
		},
		{
			name: "aggJoin", src: aggregateJoinQuery,
			plan: "Fixpoint[p] partitionKey=[0] decomposed=false\n" +
				"  aggregate: min() AS C, implicit group by [0]\n" +
				"  rule 0: strategy=broadcast broadcast=edge on [2]\n",
			shuffledKey: []int{0},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV003", "RV020"},
			partition: []string{
				"RV020 warning [p recursive rule 1]: recursive join keys do not cover the partition key [0]: the delta cannot stay co-partitioned and reshuffles (broadcast join) every iteration\n    hint: join the recursive reference on its grouping columns, or carry the partition key through the head to enable decomposed execution",
			},
		},
		{
			name: "tie", src: tiedKeyQuery,
			plan: "Fixpoint[p] partitionKey=[0] decomposed=false\n" +
				"  aggregate: min() AS C, implicit group by [0 1]\n" +
				"  rule 0: strategy=co-partition copartBase=e2 on [0] broadcast=e1 on [0]\n",
			shuffledKey: []int{0, 1},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV001", "RV021"},
			partition: []string{
				"RV021 info [p]: partition key narrowed from the full group-by [0 1] to [0] so every recursive rule joins co-partitioned; the planner applies this automatically",
			},
		},
		{
			name: "longest", src: widestKeyQuery,
			plan: "Fixpoint[p] partitionKey=[0 2] decomposed=false\n" +
				"  aggregate: min() AS C, implicit group by [0 1 2]\n" +
				"  rule 0: strategy=co-partition copartBase=e3 on [0 1] broadcast=e1 on [0] broadcast=e2 on [0]\n",
			shuffledKey: []int{0, 1, 2},
			shuffled:    []string{"broadcast"},
			codes:       []string{"RV001", "RV021"},
			partition: []string{
				"RV021 info [p]: partition key narrowed from the full group-by [0 1 2] to [0 2] so every recursive rule joins co-partitioned; the planner applies this automatically",
			},
		},
	}
	cat := paperCatalog()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := analyzeQ(t, c.src, cat)
			var codes, partition []string
			for _, d := range vet.Analyze(prog).Diagnostics {
				codes = append(codes, d.Code)
				if d.Code >= "RV020" && d.Code < "RV030" {
					partition = append(partition, d.String())
				}
			}
			slices.Sort(codes)
			if !slices.Equal(codes, c.codes) {
				t.Errorf("vet codes = %q, want %q", codes, c.codes)
			}
			if !slices.Equal(partition, c.partition) {
				t.Errorf("co-partition diagnostics = %q, want %q", partition, c.partition)
			}

			p, err := PlanDistributed(prog.Clique)
			if c.reason != "" {
				nd, ok := err.(*ErrNotDistributable)
				if !ok || nd.Reason != c.reason {
					t.Fatalf("PlanDistributed error = %v, want not distributable: %s", err, c.reason)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Describe(); got != c.plan {
				t.Errorf("plan =\n%s\nwant\n%s", got, c.plan)
			}
			r := replanShuffled(prog.Clique)
			var shuffled []string
			for _, rp := range r.Rules {
				shuffled = append(shuffled, rp.Strategy.String())
			}
			if r.Decomposed || !slices.Equal(r.PartKey, c.shuffledKey) || !slices.Equal(shuffled, c.shuffled) {
				t.Errorf("shuffled replan: key %v strategies %q decomposed=%v, want key %v strategies %q",
					r.PartKey, shuffled, r.Decomposed, c.shuffledKey, c.shuffled)
			}
		})
	}
}
