package gap

import (
	"math/rand"
	"testing"

	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/types"
)

func edges(pairs ...[3]float64) *relation.Relation {
	rel := relation.New("edge", gen.EdgeSchema())
	for _, p := range pairs {
		rel.Append(types.Row{types.Int(int64(p[0])), types.Int(int64(p[1])), types.Float(p[2])})
	}
	return rel
}

func TestBFS(t *testing.T) {
	g := NewCSR(edges([3]float64{1, 2, 1}, [3]float64{2, 3, 1}, [3]float64{4, 5, 1}))
	got := g.BFS(1)
	want := map[int64]bool{1: true, 2: true, 3: true}
	if len(got) != len(want) {
		t.Fatalf("BFS = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("unexpected vertex %d", v)
		}
	}
	if g.BFS(99) != nil {
		t.Error("BFS from absent source should be nil")
	}
}

func TestSSSPAgainstKnownDistances(t *testing.T) {
	g := NewCSR(edges(
		[3]float64{1, 2, 1}, [3]float64{1, 3, 4}, [3]float64{2, 3, 2},
		[3]float64{3, 4, 1}, [3]float64{4, 2, 5}, [3]float64{2, 5, 10}, [3]float64{5, 1, 1}))
	d := g.SSSP(1)
	want := map[int64]float64{1: 0, 2: 1, 3: 3, 4: 4, 5: 11}
	if len(d) != len(want) {
		t.Fatalf("SSSP = %v", d)
	}
	for v, w := range want {
		if d[v] != w {
			t.Errorf("dist[%d] = %v, want %v", v, d[v], w)
		}
	}
}

// unionFind is the ground-truth component structure.
func unionFind(n int, pairs [][2]int64) map[int64]int64 {
	parent := map[int64]int64{}
	var find func(x int64) int64
	find = func(x int64) int64 {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, p := range pairs {
		a, b := find(p[0]), find(p[1])
		if a != b {
			if a < b {
				parent[b] = a
			} else {
				parent[a] = b
			}
		}
	}
	out := map[int64]int64{}
	for v := range parent {
		out[v] = find(v)
	}
	return out
}

func TestCCAgainstUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pairs [][2]int64
	rel := relation.New("edge", gen.PlainEdgeSchema())
	for i := 0; i < 300; i++ {
		a, b := rng.Int63n(120), rng.Int63n(120)
		if a == b {
			continue
		}
		pairs = append(pairs, [2]int64{a, b})
		rel.Append(types.Row{types.Int(a), types.Int(b)})
		rel.Append(types.Row{types.Int(b), types.Int(a)})
	}
	want := unionFind(120, pairs)

	for name, labels := range map[string]map[int64]int64{
		"serial":   NewCSR(rel).CC(),
		"parallel": NewCSR(rel).CCParallel(4),
	} {
		if len(labels) == 0 {
			t.Fatalf("%s: no labels", name)
		}
		// Same partition into components: two vertices share a label iff
		// they share a root.
		for v, l := range labels {
			for w, m := range labels {
				if (want[v] == want[w]) != (l == m) {
					t.Fatalf("%s: vertices %d and %d: labels %d,%d but roots %d,%d",
						name, v, w, l, m, want[v], want[w])
				}
			}
		}
	}
}

func TestCSRCounts(t *testing.T) {
	g := NewCSR(edges([3]float64{1, 2, 1}, [3]float64{1, 3, 1}))
	if len(g.IDs) != 3 || len(g.dst) != 2 {
		t.Errorf("V=%d E=%d", len(g.IDs), len(g.dst))
	}
}
