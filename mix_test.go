package rasql_test

import (
	"fmt"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/gen"
)

// mixEdges is short-mix's table: RMAT-200 with its weights, named mix_edge,
// as benchmarks/rasqlbench/workloads.go builds it for seed 1 (copied, since
// that package is a main).
func mixEdges() *rasql.Relation {
	edges := gen.RMATDefault(200, gen.Rng(1))
	edges.Name = "mix_edge"
	return edges
}

// busiestSrc is the vertex with the most outgoing edges, the smallest of
// equals.
func busiestSrc(edges *rasql.Relation) int64 {
	degree := map[int64]int{}
	for _, r := range edges.Rows {
		degree[r[0].I]++
	}
	var source int64
	for v, d := range degree {
		if d > degree[source] || d == degree[source] && v < source {
			source = v
		}
	}
	return source
}

// statementAllocFence holds a warm execution of a non-recursive query over
// edges (see warmExecution) to the allocation budgets, each the largest of
// 30 measured runs plus 10%. Its answer must render exactly as want, one
// row per line.
func statementAllocFence(t *testing.T, edges *rasql.Relation, query, want string, budget, byteBudget uint64) {
	t.Helper()
	eng, p := prepareFenced(t, edges, query)
	res, allocs, bytes := warmExecution(t, eng, p)
	got := ""
	for _, r := range res.Rows {
		got += r.String() + "\n"
	}
	if got != want {
		t.Errorf("%s answers\n%swant\n%s", query, got, want)
	}
	checkAllocBudget(t, allocs, bytes, budget, byteBudget)
}

// TestShortMixPreparedAllocBudget fences short-mix's statement classes that
// do not recurse, each a warm execution on four workers and four
// partitions: A, the cached count(*) of one vertex's edges, here the busiest
// one's; B, the filtered projection a fresh literal makes every request
// compile, here of vertex 3's edges; D, the global aggregate scan. Class C
// is TestShortReachPreparedAllocBudget. A and D fold into exec.Grouping's
// one partial row, B projects into one value slab, and no filter builds a
// set of the sources it reads: 15, 15 and 14 allocations of 1,160, 3,872
// and 1,304 B. With a map of per-call accumulator objects, a grouped
// statement's group, key and result rows allocated apart, and a map per
// filter, A made 17 allocations of 1,392 B, B 19 of 4,256 B and D 16 of
// 1,680 B.
func TestShortMixPreparedAllocBudget(t *testing.T) {
	edges := mixEdges()
	for _, c := range []struct {
		class, query, want string
		budget, byteBudget uint64
	}{
		{"A", fmt.Sprintf(`SELECT count(*) FROM mix_edge WHERE Src = %d`, busiestSrc(edges)), "(126)\n", 17, 1276},
		{"B", fmt.Sprintf(`SELECT Dst, Cost FROM mix_edge WHERE Src = 3 AND Cost < %.7f`, 50+1e-7),
			"(40, 12.0)\n(52, 12.0)\n(105, 9.0)\n(22, 29.0)\n(16, 41.0)\n(154, 32.0)\n" +
				"(170, 26.0)\n(155, 22.0)\n(0, 32.0)\n(131, 35.0)\n(25, 26.0)\n(65, 7.0)\n", 17, 4260},
		{"D", `SELECT count(*), min(Cost), max(Cost) FROM mix_edge`, "(2000, 0.0, 99.0)\n", 16, 1435},
	} {
		t.Run(c.class, func(t *testing.T) {
			statementAllocFence(t, edges, c.query, c.want, c.budget, c.byteBudget)
		})
	}
}

// TestGroupByPreparedAllocBudget fences a GROUP BY with every aggregate and
// a count(distinct) over short-mix's table: 185 groups, folded by one
// exec.Grouping into a group table of partial rows and a table of distinct
// values sized once from the 2,000 input rows, both carved from one slab,
// so the fold allocates O(log groups) times: 46 allocations of 500,336 B,
// whose budgets are the largest of 30 runs plus 10%. With a map of
// accumulator objects, a key string per distinct value and a row per
// group, a warm execution made 5,310 allocations of 525 KB.
func TestGroupByPreparedAllocBudget(t *testing.T) {
	edges := mixEdges()
	eng, p := prepareFenced(t, edges, groupByQuery)
	res, allocs, bytes := warmExecution(t, eng, p)
	if got, want := len(res.Rows), 185; got != want {
		t.Errorf("%d groups, want %d", got, want)
	} else if first, last := res.Rows[0].String(), res.Rows[184].String(); first != "(2, 61, 49, 2803.0, 0.0, 99.0, 45.950819672131146)" || last != "(62, 1, 1, 32.0, 32.0, 32.0, 32.0)" {
		t.Errorf("first and last groups %s and %s changed", first, last)
	}
	checkAllocBudget(t, allocs, bytes, 51, 550370)
}

// groupByQuery is TestGroupByPreparedAllocBudget's statement.
const groupByQuery = `SELECT Src, count(*), count(distinct Dst), sum(Cost), min(Cost), max(Cost), avg(Cost) FROM mix_edge GROUP BY Src`

// TestDedupAllocBudget: exec's DISTINCT and UNION keep the first
// of equal rows through a types.Combiner sized once for the rows it dedups,
// so a warm execution makes as many allocations over short-mix's 2,000
// edges as over RMAT-20's 200: 14 for SELECT DISTINCT and 22 for UNION.
// The budgets are the largest of 30 runs plus 10%. Through a Go map with
// one RowKeyString string per row, SELECT DISTINCT made 4,017 allocations
// over the 2,000 edges.
func TestDedupAllocBudget(t *testing.T) {
	for _, c := range []struct {
		query  string
		budget uint64
	}{
		{`SELECT DISTINCT Src FROM mix_edge`, 16},
		{`SELECT Src FROM mix_edge UNION SELECT Dst FROM mix_edge`, 25},
	} {
		var counts []uint64
		for _, edges := range []*rasql.Relation{gen.RMATDefault(20, gen.Rng(1)), mixEdges()} {
			edges.Name = "mix_edge"
			eng, p := prepareFenced(t, edges, c.query)
			_, allocs, _ := warmExecution(t, eng, p)
			counts = append(counts, allocs)
		}
		if counts[0] != counts[1] || counts[1] > c.budget {
			t.Errorf("%s made %d allocations over 200 edges and %d over 2,000; want the same, at most %d", c.query, counts[0], counts[1], c.budget)
		}
		t.Logf("%s made %d allocations over 200 edges and %d over 2,000 (budget %d)", c.query, counts[0], counts[1], c.budget)
	}
}

// TestJoinAllocBudget fences a point self-join, vertex 3's two-hop paths,
// over RMAT-200's 2,000 edges and RMAT-2000's 20,000. The join's build
// side is a cluster.RowTable, which allocates a fixed number of times
// whatever the number of keys and copies the build rows into one slab, so
// a warm execution makes 34 allocations of 620,832 B over 2,000 edges and
// at most 42 of 5,203,104 B over 20,000; the budgets are the largest of 30
// runs plus 10%. With a Go map of build rows keyed by AppendKey strings,
// it made 2,745 allocations of 526,072 B and 26,363 of 3,749,728 B: the
// bytes were fewer, since the map held the input rows, not copies.
func TestJoinAllocBudget(t *testing.T) {
	for _, c := range []struct {
		n, rows            int
		budget, byteBudget uint64
	}{
		{200, 526, 38, 682915},
		{2000, 1869, 47, 5723414},
	} {
		t.Run(fmt.Sprintf("RMAT-%d", c.n), func(t *testing.T) {
			edges := gen.RMATDefault(c.n, gen.Rng(1))
			edges.Name = "mix_edge"
			eng, p := prepareFenced(t, edges, joinQuery)
			res, allocs, bytes := warmExecution(t, eng, p)
			if len(res.Rows) != c.rows {
				t.Errorf("%d rows, want %d", len(res.Rows), c.rows)
			}
			checkAllocBudget(t, allocs, bytes, c.budget, c.byteBudget)
		})
	}
}

// joinQuery is TestJoinAllocBudget's point self-join.
const joinQuery = `SELECT a.Src, b.Dst FROM mix_edge a, mix_edge b WHERE a.Dst = b.Src AND a.Src = 3`
