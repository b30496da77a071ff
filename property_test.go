package rasql_test

import (
	"math/rand"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/gap"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/queries"
)

// Property tests: on random graphs, the SQL engine must agree with
// independently implemented algorithms (BFS, Bellman-Ford, label
// propagation, brute-force reachability).

func toPublic(rel *relation.Relation) *rasql.Relation { return rel }

// ccRelation renders CC labels as a (Src, CmpId) relation for comparison
// with the RaSQL result.
func ccRelation(labels map[int64]int64) *rasql.Relation {
	rel := rasql.NewRelation("cc", rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("CmpId", rasql.KindInt)))
	for v, l := range labels {
		rel.Append(rasql.Row{rasql.Int(v), rasql.Int(l)})
	}
	return rel
}

// reachRelation renders reachable ids as a (Dst) relation.
func reachRelation(ids []int64) *rasql.Relation {
	rel := rasql.NewRelation("reach", rasql.NewSchema(rasql.Col("Dst", rasql.KindInt)))
	for _, v := range ids {
		rel.Append(rasql.Row{rasql.Int(v)})
	}
	return rel
}

func TestPropertySSSPAgainstBellmanFord(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		g := gen.RMATDefault(200, gen.Rng(int64(trial)*7+1))
		eng := rasql.New(rasql.Config{})
		eng.MustRegister(toPublic(g))
		got, err := eng.Query(queries.SSSP)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := gap.NewCSR(g).SSSP(1)
		if got.Len() != len(want) {
			t.Fatalf("trial %d: %d rows vs %d reachable", trial, got.Len(), len(want))
		}
		for _, r := range got.Rows {
			if d, ok := want[r[0].AsInt()]; !ok || d != r[1].AsFloat() {
				t.Fatalf("trial %d: dist[%d] = %v, want %v", trial, r[0].AsInt(), r[1], d)
			}
		}
	}
}

func TestPropertyReachAgainstBFS(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		g := gen.Unweighted(gen.RMATDefault(300, gen.Rng(int64(trial)*13+5)))
		eng := rasql.New(rasql.Config{})
		eng.MustRegister(toPublic(g))
		got, err := eng.Query(queries.Reach)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := reachRelation(gap.NewCSR(g).BFS(1))
		if !got.EqualAsSet(want) {
			t.Fatalf("trial %d: REACH disagrees with BFS (%d vs %d rows)", trial, got.Len(), want.Len())
		}
	}
}

func TestPropertyCCAgainstLabelPropagation(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		g := gen.Symmetrized(gen.Unweighted(gen.RMATDefault(150, gen.Rng(int64(trial)*3+11))))
		eng := rasql.New(rasql.Config{})
		eng.MustRegister(toPublic(g))
		got, err := eng.Query(queries.CCLabels)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ccRelation(gap.NewCSR(g).CC())
		if !got.EqualAsSet(want) {
			t.Fatalf("trial %d: CC disagrees with label propagation", trial)
		}
	}
}

func TestPropertyTCAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		n := 20
		var pairs [][2]int64
		for i := 0; i < 50; i++ {
			a, b := rng.Int63n(int64(n)), rng.Int63n(int64(n))
			pairs = append(pairs, [2]int64{a, b})
		}
		edges := plainEdges(pairs...)
		eng := rasql.New(rasql.Config{})
		eng.MustRegister(edges)
		got, err := eng.Query(queries.TC)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute-force transitive closure via repeated squaring of the
		// reachability matrix.
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
		}
		for _, p := range pairs {
			reach[p[0]][p[1]] = true
		}
		for changed := true; changed; {
			changed = false
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if !reach[i][j] {
						continue
					}
					for k := 0; k < n; k++ {
						if reach[j][k] && !reach[i][k] {
							reach[i][k] = true
							changed = true
						}
					}
				}
			}
		}
		want := rasql.NewRelation("want", edges.Schema)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if reach[i][j] {
					want.Append(iRow(int64(i), int64(j)))
				}
			}
		}
		if !got.EqualAsSet(want) {
			t.Fatalf("trial %d: TC disagrees with brute force (%d vs %d rows)",
				trial, got.Clone().Dedup().Len(), want.Len())
		}
	}
}

func TestPropertyCountPathsAgainstDP(t *testing.T) {
	// Random DAGs (edges only from lower to higher ids): path counts from
	// node 1 must match dynamic programming in topological order.
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 5; trial++ {
		n := int64(15)
		var pairs [][2]int64
		for i := 0; i < 40; i++ {
			a := rng.Int63n(n - 1)
			b := a + 1 + rng.Int63n(n-a-1)
			pairs = append(pairs, [2]int64{a + 1, b + 1}) // ids 1..n
		}
		edges := plainEdges(pairs...)
		eng := rasql.New(rasql.Config{})
		eng.MustRegister(edges)
		got, err := eng.Query(queries.CountPaths)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		counts := map[int64]int64{1: 1}
		for v := int64(2); v <= n; v++ {
			for _, p := range pairs {
				if p[1] == v {
					counts[v] += counts[p[0]]
				}
			}
		}
		for _, r := range got.Rows {
			if counts[r[0].AsInt()] != r[1].AsInt() {
				t.Fatalf("trial %d: paths to %d = %v, want %d (graph %v)",
					trial, r[0].AsInt(), r[1], counts[r[0].AsInt()], pairs)
			}
		}
		for v, c := range counts {
			if c == 0 {
				continue
			}
			found := false
			for _, r := range got.Rows {
				if r[0].AsInt() == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("trial %d: node %d missing from result", trial, v)
			}
		}
	}
}

func TestPropertyDeliveryAgainstRecursiveMax(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		tr := gen.NewTree(5, 2, 4, 0.3, 0, gen.Rng(int64(trial)+50))
		assbl, basic := tr.AssblBasic(50, gen.Rng(int64(trial)+51))
		eng := rasql.New(rasql.Config{})
		eng.MustRegister(toPublic(assbl))
		eng.MustRegister(toPublic(basic))
		got, err := eng.Query(queries.Delivery)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Independent recursion over the tree.
		days := map[int64]int64{}
		for _, r := range basic.Rows {
			days[r[0].AsInt()] = r[1].AsInt()
		}
		var solve func(node int64) int64
		children := map[int64][]int64{}
		for i := 1; i < tr.Len(); i++ {
			children[int64(tr.Parent[i])] = append(children[int64(tr.Parent[i])], int64(i))
		}
		solve = func(node int64) int64 {
			if d, ok := days[node]; ok && tr.IsLeaf[node] {
				return d
			}
			best := int64(0)
			for _, c := range children[node] {
				if d := solve(c); d > best {
					best = d
				}
			}
			return best
		}
		for _, r := range got.Rows {
			if want := solve(r[0].AsInt()); want != r[1].AsInt() {
				t.Fatalf("trial %d: waitfor[%d] = %v, want %d", trial, r[0].AsInt(), r[1], want)
			}
		}
	}
}

// The engines must agree regardless of partition counts (DSN invariance).
func TestPropertyPartitionCountInvariance(t *testing.T) {
	g := gen.RMATDefault(300, gen.Rng(9))
	var results []*rasql.Relation
	for _, parts := range []int{1, 2, 5, 9, 16} {
		eng := rasql.New(rasql.Config{Cluster: rasql.ClusterConfig{Workers: 4, Partitions: parts}})
		eng.MustRegister(toPublic(g))
		got, err := eng.Query(queries.SSSP)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		results = append(results, got)
	}
	for i := 1; i < len(results); i++ {
		if !results[0].EqualAsSet(results[i]) {
			t.Fatalf("result differs between partition configurations %d and %d", 0, i)
		}
	}
}

// DSN results must be invariant under the stage execution mode: the
// parallel default (one goroutine per simulated worker) and the sequential
// debugging mode must produce identical result sets for every example query.
func TestPropertyParallelStagesInvariance(t *testing.T) {
	for _, tc := range exampleCases() {
		t.Run(tc.name, func(t *testing.T) {
			run := func(cl rasql.ClusterConfig) *rasql.Relation {
				eng := rasql.New(rasql.Config{Cluster: cl})
				for _, tab := range tc.tables() {
					eng.MustRegister(tab)
				}
				got, err := eng.Query(tc.query)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				return got
			}
			seq := run(rasql.ClusterConfig{Workers: 4, Partitions: 8, SequentialStages: true})
			par := run(rasql.ClusterConfig{Workers: 4, Partitions: 8})
			if !par.EqualAsSet(seq) {
				t.Errorf("%s: parallel stages changed results:\nseq %v\npar %v",
					tc.name, seq.Sort(), par.Sort())
			}
		})
	}
}
