// Package gen generates the synthetic datasets of the paper's evaluation:
// RMAT power-law graphs (Section 8.1), Erdős–Rényi G(n,p) graphs, grid
// graphs and random trees (Appendix E), plus scaled-down analogs of the
// four real-world graphs of Table 1.
//
// Every generator takes an explicitly seeded *rand.Rand — never the global
// math/rand source (TestSourceRules bans it engine-wide) — so a
// dataset is a pure function of its seed: Rng(seed) always reproduces the
// same relation. Generators that used to take a seed directly are called
// as, e.g., RMATDefault(n, gen.Rng(seed)), which produces bit-identical
// data to the old form.
package gen

import (
	"math/rand"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/types"
)

// Rng constructs the canonical explicitly seeded generator for a dataset.
// One Rng feeds one generator call; reusing it across calls chains the
// streams (deliberately different data), while fresh Rng(seed) calls
// reproduce the same data.
func Rng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// EdgeSchema is the weighted edge schema edge(Src, Dst, Cost).
func EdgeSchema() types.Schema {
	return types.NewSchema(
		types.Col("Src", types.KindInt),
		types.Col("Dst", types.KindInt),
		types.Col("Cost", types.KindFloat),
	)
}

// PlainEdgeSchema is the unweighted edge schema edge(Src, Dst).
func PlainEdgeSchema() types.Schema {
	return types.NewSchema(
		types.Col("Src", types.KindInt),
		types.Col("Dst", types.KindInt),
	)
}

// RMAT generates an RMAT graph with n vertices and m directed edges using
// recursive quadrant probabilities (a, b, c, 1-a-b-c) — the paper uses
// (0.45, 0.25, 0.15) and m = 10n, with uniform integer weights in [0, 100).
func RMAT(n, m int, a, b, c float64, rng *rand.Rand) *relation.Relation {
	scale := 0
	for 1<<scale < n {
		scale++
	}
	rel := relation.New("edge", EdgeSchema())
	rel.Rows = make([]types.Row, 0, m)
	for i := 0; i < m; i++ {
		src, dst := 0, 0
		for level := 0; level < scale; level++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left quadrant
			case r < a+b:
				dst |= 1 << level
			case r < a+b+c:
				src |= 1 << level
			default:
				src |= 1 << level
				dst |= 1 << level
			}
		}
		src %= n
		dst %= n
		w := float64(rng.Intn(100))
		rel.Append(types.Row{types.Int(int64(src)), types.Int(int64(dst)), types.Float(w)})
	}
	return rel
}

// RMATDefault generates the paper's RMAT-n parameterization: n vertices,
// 10n edges, (a,b,c) = (0.45, 0.25, 0.15).
func RMATDefault(n int, rng *rand.Rand) *relation.Relation {
	return RMAT(n, 10*n, 0.45, 0.25, 0.15, rng)
}

// Erdos generates a directed Erdős–Rényi G(n, p) graph with uniform
// weights, using geometric skip sampling so the cost is proportional to the
// edge count. The paper's G10K-3 is Erdos(10000, 1e-3, ...).
func Erdos(n int, p float64, rng *rand.Rand) *relation.Relation {
	rel := relation.New("edge", EdgeSchema())
	if p <= 0 {
		return rel
	}
	total := int64(n) * int64(n-1)
	pos := int64(0)
	for {
		// Skip ahead geometrically to the next sampled pair.
		skip := int64(rng.ExpFloat64() / p)
		if skip < 0 {
			skip = 0
		}
		pos += skip + 1
		if pos > total {
			return rel
		}
		idx := pos - 1
		src := idx / int64(n-1)
		off := idx % int64(n-1)
		dst := off
		if dst >= src {
			dst++ // skip self-loops
		}
		w := float64(rng.Intn(100))
		rel.Append(types.Row{types.Int(src), types.Int(dst), types.Float(w)})
	}
}

// Grid generates the paper's Grid-k dataset: a (k+1) × (k+1) grid with
// directed right and down edges (Grid150 → 22801 vertices, 45300 edges).
func Grid(k int, rng *rand.Rand) *relation.Relation {
	side := k + 1
	rel := relation.New("edge", EdgeSchema())
	rel.Rows = make([]types.Row, 0, 2*side*k)
	id := func(r, c int) int64 { return int64(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			w := float64(rng.Intn(100))
			if c+1 < side {
				rel.Append(types.Row{types.Int(id(r, c)), types.Int(id(r, c+1)), types.Float(w)})
			}
			if r+1 < side {
				rel.Append(types.Row{types.Int(id(r, c)), types.Int(id(r+1, c)), types.Float(w)})
			}
		}
	}
	return rel
}

// Unweighted strips the Cost column, producing edge(Src, Dst).
func Unweighted(weighted *relation.Relation) *relation.Relation {
	rel := relation.New(weighted.Name, PlainEdgeSchema())
	rel.Rows = make([]types.Row, len(weighted.Rows))
	for i, r := range weighted.Rows {
		rel.Rows[i] = types.Row{r[0], r[1]}
	}
	return rel
}

// Symmetrized returns the graph with every edge duplicated in reverse —
// how undirected graphs are loaded for CC-style label propagation.
func Symmetrized(edges *relation.Relation) *relation.Relation {
	rel := relation.New(edges.Name, edges.Schema)
	rel.Rows = make([]types.Row, 0, 2*len(edges.Rows))
	for _, r := range edges.Rows {
		rel.Append(r)
		rev := r.Clone()
		rev[0], rev[1] = r[1], r[0]
		rel.Append(rev)
	}
	return rel
}

// Tree is a random rooted tree; node 0 is the root and Parent[i] is the
// parent of node i (Parent[0] = -1).
type Tree struct {
	Parent []int32
	// IsLeaf marks nodes with no children.
	IsLeaf []bool
	// Height is the generated height.
	Height int
}

// NewTree generates a random tree level by level, matching the paper's
// Section 8.2 datasets: each internal node has minChild..maxChild children
// and each child turns leaf with probability leafProb, down to the given
// height. maxNodes caps generation (0 = unlimited).
func NewTree(height, minChild, maxChild int, leafProb float64, maxNodes int, rng *rand.Rand) *Tree {
	t := &Tree{Parent: []int32{-1}, IsLeaf: []bool{false}, Height: height}
	frontier := []int32{0}
	for level := 0; level < height && len(frontier) > 0; level++ {
		var next []int32
		for _, p := range frontier {
			if t.IsLeaf[p] {
				continue
			}
			k := minChild
			if maxChild > minChild {
				k += rng.Intn(maxChild - minChild + 1)
			}
			for c := 0; c < k; c++ {
				if maxNodes > 0 && len(t.Parent) >= maxNodes {
					t.fixLeaves()
					return t
				}
				id := int32(len(t.Parent))
				t.Parent = append(t.Parent, p)
				leaf := level+1 >= height || rng.Float64() < leafProb
				t.IsLeaf = append(t.IsLeaf, leaf)
				if !leaf {
					next = append(next, id)
				}
			}
		}
		frontier = next
	}
	t.fixLeaves()
	return t
}

// fixLeaves marks any childless node as a leaf (generation may have been
// cut by maxNodes).
func (t *Tree) fixLeaves() {
	hasChild := make([]bool, len(t.Parent))
	for i := 1; i < len(t.Parent); i++ {
		hasChild[t.Parent[i]] = true
	}
	for i := range t.IsLeaf {
		t.IsLeaf[i] = !hasChild[i]
	}
}

// Len returns the node count.
func (t *Tree) Len() int { return len(t.Parent) }

// AssblBasic converts the tree into the BOM tables: assbl(Part, Spart) for
// internal edges and basic(Part, Days) with random days on leaves.
func (t *Tree) AssblBasic(maxDays int, rng *rand.Rand) (assbl, basic *relation.Relation) {
	assbl = relation.New("assbl", types.NewSchema(
		types.Col("Part", types.KindInt), types.Col("Spart", types.KindInt)))
	basic = relation.New("basic", types.NewSchema(
		types.Col("Part", types.KindInt), types.Col("Days", types.KindInt)))
	for i := 1; i < len(t.Parent); i++ {
		assbl.Append(types.Row{types.Int(int64(t.Parent[i])), types.Int(int64(i))})
	}
	for i, leaf := range t.IsLeaf {
		if leaf {
			basic.Append(types.Row{types.Int(int64(i)), types.Int(int64(1 + rng.Intn(maxDays)))})
		}
	}
	return assbl, basic
}

// Report converts the tree into the Management table report(Emp, Mgr):
// every non-root node reports to its parent.
func (t *Tree) Report() *relation.Relation {
	rel := relation.New("report", types.NewSchema(
		types.Col("Emp", types.KindInt), types.Col("Mgr", types.KindInt)))
	for i := 1; i < len(t.Parent); i++ {
		rel.Append(types.Row{types.Int(int64(i)), types.Int(int64(t.Parent[i]))})
	}
	return rel
}

// SalesSponsor converts the tree into the MLM tables: sales(M, P) with
// random profits on every node and sponsor(M1, M2) along tree edges.
func (t *Tree) SalesSponsor(maxProfit int, rng *rand.Rand) (sales, sponsor *relation.Relation) {
	sales = relation.New("sales", types.NewSchema(
		types.Col("M", types.KindInt), types.Col("P", types.KindFloat)))
	sponsor = relation.New("sponsor", types.NewSchema(
		types.Col("M1", types.KindInt), types.Col("M2", types.KindInt)))
	for i := range t.Parent {
		sales.Append(types.Row{types.Int(int64(i)), types.Float(float64(rng.Intn(maxProfit)) + 1)})
	}
	for i := 1; i < len(t.Parent); i++ {
		sponsor.Append(types.Row{types.Int(int64(t.Parent[i])), types.Int(int64(i))})
	}
	return sales, sponsor
}

// RealWorldAnalog describes a scaled-down stand-in for one of the paper's
// Table 1 graphs: an RMAT graph with the original's edge/vertex ratio and
// heavier skew, preserving the skew-sensitivity Figure 9 exercises.
type RealWorldAnalog struct {
	Name     string
	Vertices int
	// EdgeFactor is |E|/|V| of the original graph.
	EdgeFactor int
	// PaperVertices/PaperEdges document the original sizes (Table 1).
	PaperVertices, PaperEdges int64
}

// RealWorldAnalogs lists the four Table 1 datasets with default scaled
// sizes (original vertex counts divided by ~64, capped for laptop runs).
func RealWorldAnalogs(scaleDiv int) []RealWorldAnalog {
	if scaleDiv <= 0 {
		scaleDiv = 64
	}
	mk := func(name string, v, e int64) RealWorldAnalog {
		return RealWorldAnalog{
			Name:          name,
			Vertices:      int(v / int64(scaleDiv)),
			EdgeFactor:    int(e / v),
			PaperVertices: v,
			PaperEdges:    e,
		}
	}
	return []RealWorldAnalog{
		mk("livejournal", 4847572, 68993773),
		mk("orkut", 3072441, 117185083),
		mk("arabic", 22744080, 639999458),
		mk("twitter", 41652231, 1468365182),
	}
}

// Generate produces the analog graph: RMAT with skewed quadrant weights
// (0.57, 0.19, 0.19), the parameterization commonly used for social-graph
// degree skew.
func (a RealWorldAnalog) Generate(rng *rand.Rand) *relation.Relation {
	return RMAT(a.Vertices, a.Vertices*a.EdgeFactor, 0.57, 0.19, 0.19, rng)
}
