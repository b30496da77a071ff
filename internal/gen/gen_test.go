package gen

import (
	"reflect"
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

func TestRMATDeterministicAndSized(t *testing.T) {
	a := RMATDefault(1024, Rng(7))
	b := RMATDefault(1024, Rng(7))
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Error("same seed must generate the same graph")
	}
	if a.Len() != 10240 {
		t.Errorf("RMAT-1024 should have 10n edges, got %d", a.Len())
	}
	c := RMATDefault(1024, Rng(8))
	if reflect.DeepEqual(a.Rows, c.Rows) {
		t.Error("different seeds should differ")
	}
	for _, r := range a.Rows[:100] {
		if r[0].AsInt() < 0 || r[0].AsInt() >= 1024 || r[1].AsInt() < 0 || r[1].AsInt() >= 1024 {
			t.Fatalf("vertex out of range: %v", r)
		}
		if r[2].AsFloat() < 0 || r[2].AsFloat() >= 100 {
			t.Fatalf("weight out of range: %v", r)
		}
	}
}

func TestRMATIsSkewed(t *testing.T) {
	g := RMATDefault(4096, Rng(3))
	deg := map[int64]int{}
	for _, r := range g.Rows {
		deg[r[0].AsInt()]++
	}
	max, sum := 0, 0
	for _, d := range deg {
		if d > max {
			max = d
		}
		sum += d
	}
	avg := float64(sum) / float64(len(deg))
	if float64(max) < 5*avg {
		t.Errorf("RMAT should be skewed: max degree %d vs average %.1f", max, avg)
	}
}

func TestErdosEdgeCount(t *testing.T) {
	n, p := 2000, 1e-3
	g := Erdos(n, p, Rng(11))
	want := float64(n) * float64(n-1) * p
	got := float64(g.Len())
	if got < want*0.8 || got > want*1.2 {
		t.Errorf("G(%d, %g) edge count %v not within 20%% of %v", n, p, got, want)
	}
	for _, r := range g.Rows {
		if r[0].AsInt() == r[1].AsInt() {
			t.Fatal("Erdos must not generate self-loops")
		}
	}
	if !reflect.DeepEqual(g.Rows, Erdos(n, p, Rng(11)).Rows) {
		t.Error("Erdos must be deterministic in its seed")
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(150, Rng(1))
	// Paper Table 2: Grid150 has 22801 vertices and 45300 edges.
	if g.Len() != 45300 {
		t.Errorf("Grid150 edges = %d, want 45300", g.Len())
	}
	vs := map[int64]struct{}{}
	for _, r := range g.Rows {
		vs[r[0].AsInt()] = struct{}{}
		vs[r[1].AsInt()] = struct{}{}
	}
	if len(vs) != 22801 {
		t.Errorf("Grid150 vertices = %d, want 22801", len(vs))
	}
}

func TestUnweightedAndSymmetrized(t *testing.T) {
	g := RMATDefault(256, Rng(2))
	u := Unweighted(g)
	if u.Schema.Len() != 2 || u.Len() != g.Len() {
		t.Errorf("Unweighted wrong: %v", u.Schema)
	}
	s := Symmetrized(u)
	if s.Len() != 2*u.Len() {
		t.Errorf("Symmetrized should double edges: %d vs %d", s.Len(), u.Len())
	}
	// Every edge must have its reverse.
	set := map[[2]int64]bool{}
	for _, r := range s.Rows {
		set[[2]int64{r[0].AsInt(), r[1].AsInt()}] = true
	}
	for _, r := range s.Rows {
		if !set[[2]int64{r[1].AsInt(), r[0].AsInt()}] {
			t.Fatalf("missing reverse of %v", r)
		}
	}
}

func TestTreeStructure(t *testing.T) {
	tr := NewTree(6, 2, 4, 0.3, 0, Rng(5))
	if tr.Len() < 10 {
		t.Fatalf("tree too small: %d", tr.Len())
	}
	if tr.Parent[0] != -1 {
		t.Error("root parent must be -1")
	}
	// Parents always precede children (level order).
	for i := 1; i < tr.Len(); i++ {
		if int(tr.Parent[i]) >= i {
			t.Fatalf("node %d has parent %d", i, tr.Parent[i])
		}
	}
	// IsLeaf is consistent with child sets.
	hasChild := make([]bool, tr.Len())
	for i := 1; i < tr.Len(); i++ {
		hasChild[tr.Parent[i]] = true
	}
	for i := range hasChild {
		if tr.IsLeaf[i] == hasChild[i] {
			t.Fatalf("node %d: IsLeaf=%v but hasChild=%v", i, tr.IsLeaf[i], hasChild[i])
		}
	}
	// Determinism.
	tr2 := NewTree(6, 2, 4, 0.3, 0, Rng(5))
	if tr2.Len() != tr.Len() {
		t.Error("tree generation must be deterministic")
	}
}

func TestTreeMaxNodesCap(t *testing.T) {
	tr := NewTree(20, 5, 10, 0.2, 1000, Rng(1))
	if tr.Len() > 1000+10 {
		t.Errorf("maxNodes exceeded: %d", tr.Len())
	}
}

func TestTreeTableConversions(t *testing.T) {
	tr := NewTree(4, 2, 3, 0.2, 0, Rng(9))
	assbl, basic := tr.AssblBasic(10, Rng(1))
	if assbl.Len() != tr.Len()-1 {
		t.Errorf("assbl rows = %d, want %d", assbl.Len(), tr.Len()-1)
	}
	leaves := 0
	for _, l := range tr.IsLeaf {
		if l {
			leaves++
		}
	}
	if basic.Len() != leaves {
		t.Errorf("basic rows = %d, want %d leaves", basic.Len(), leaves)
	}
	for _, r := range basic.Rows {
		if d := r[1].AsInt(); d < 1 || d > 10 {
			t.Fatalf("days out of range: %v", r)
		}
	}
	report := tr.Report()
	if report.Len() != tr.Len()-1 {
		t.Errorf("report rows = %d", report.Len())
	}
	sales, sponsor := tr.SalesSponsor(100, Rng(2))
	if sales.Len() != tr.Len() || sponsor.Len() != tr.Len()-1 {
		t.Errorf("sales=%d sponsor=%d", sales.Len(), sponsor.Len())
	}
}

func TestRealWorldAnalogs(t *testing.T) {
	as := RealWorldAnalogs(1024)
	if len(as) != 4 {
		t.Fatalf("want 4 analogs, got %d", len(as))
	}
	names := map[string]bool{}
	for _, a := range as {
		names[a.Name] = true
		wantRatio := a.PaperEdges / a.PaperVertices
		if int64(a.EdgeFactor) != wantRatio {
			t.Errorf("%s: edge factor %d, want %d", a.Name, a.EdgeFactor, wantRatio)
		}
		g := a.Generate(Rng(3))
		if g.Len() != a.Vertices*a.EdgeFactor {
			t.Errorf("%s: generated %d edges, want %d", a.Name, g.Len(), a.Vertices*a.EdgeFactor)
		}
	}
	for _, n := range []string{"livejournal", "orkut", "arabic", "twitter"} {
		if !names[n] {
			t.Errorf("missing analog %s", n)
		}
	}
}

func TestSchemas(t *testing.T) {
	if EdgeSchema().Len() != 3 || PlainEdgeSchema().Len() != 2 {
		t.Error("schema arities wrong")
	}
	if EdgeSchema().Columns[2].Type != types.KindFloat {
		t.Error("Cost must be double")
	}
}
