package analyze

import (
	"slices"
	"testing"

	"github.com/rasql/rasql-go/queries"
)

// TestPartitionKey pins the partition key and decomposition decision on
// the paper queries and on contrived views whose joins force the key to
// narrow below the full group-by.
func TestPartitionKey(t *testing.T) {
	cases := []struct {
		name, src  string
		key, group []int
		decomposed bool
	}{
		// Joined on the full group key: no narrowing.
		{"SSSP", queries.SSSP, []int{0}, []int{0}, false},
		{"Management", queries.Management, []int{0}, []int{0}, false},
		{"MLM", queries.MLM, []int{0}, []int{0}, false},
		// The carried label lies outside the group key: not decomposable.
		{"CC", queries.CC, []int{0}, []int{0}, false},
		// Carried columns inside the group key (or a set view): decomposed.
		{"APSP", queries.APSP, []int{0}, []int{0, 1}, true},
		{"TC", queries.TC, []int{0}, []int{0, 1}, true},
		// A set view never narrows; SG's rule covers no key at all.
		{"SG", queries.SG, []int{0, 1}, []int{0, 1}, false},
		// Both rules join on column 1 only.
		{"narrowed", `
WITH recursive p (A, B, min() AS C) AS
    (SELECT Src, Dst, Cost FROM edge) UNION
    (SELECT p.A, edge.Dst, p.C + edge.Cost
     FROM p, edge WHERE p.B = edge.Src) UNION
    (SELECT edge.Src, p.B, p.C + edge.Cost
     FROM p, edge WHERE p.B = edge.Dst)
SELECT A, B, C FROM p`, []int{1}, []int{0, 1}, false},
		// Keys [1] and [0] tie on length: the smallest wins.
		{"tie", `
WITH recursive p (A, B, min() AS C) AS
    (SELECT Src, Dst, Cost FROM edge) UNION
    (SELECT e1.Dst, e2.Dst, p.C + e1.Cost FROM p, edge e1, edge e2
     WHERE p.B = e1.Src AND p.A = e2.Src)
SELECT A, B, C FROM p`, []int{0}, []int{0, 1}, false},
		// Keys [1], [0] and [0 2]: the longest wins.
		{"widest", `
WITH recursive p (A, B, D, min() AS C) AS
    (SELECT Src, Dst, Src, Cost FROM edge) UNION
    (SELECT e1.Dst, e2.Dst, e3.Dst, p.C + e1.Cost FROM p, edge e1, edge e2, edge e3
     WHERE p.B = e1.Src AND p.A = e2.Src AND p.A = e3.Src AND p.D = e3.Dst)
SELECT A, B, D, C FROM p`, []int{0, 2}, []int{0, 1, 2}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := analyzeSrc(t, c.src).Clique.Views[0]
			key, decomposed := v.PartitionKey()
			if !slices.Equal(key, c.key) || decomposed != c.decomposed {
				t.Errorf("PartitionKey = %v, %v; want %v, %v", key, decomposed, c.key, c.decomposed)
			}
			if group := v.GroupKey(); !slices.Equal(group, c.group) {
				t.Errorf("GroupKey = %v, want %v", group, c.group)
			}
		})
	}
}

// TestSameColumns pins the multiset comparison a join's columns pass to
// cover a partition key.
func TestSameColumns(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{0, 1}, []int{1, 0}, true},
		{[]int{2}, []int{2}, true},
		{[]int{0, 0}, []int{0, 1}, false},
		{[]int{0, 1}, []int{0, 0}, false},
		{[]int{0}, []int{0, 1}, false},
		{nil, nil, false},
	}
	for _, c := range cases {
		if got := SameColumns(c.a, c.b); got != c.want {
			t.Errorf("SameColumns(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
