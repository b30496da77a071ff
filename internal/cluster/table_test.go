package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

// naiveGroups groups rows by their normalized key (the equality a State's
// group table keys on, under which Int(3) and Float(3.0) coincide and NULL equals
// NULL, as Value.Equal has it), keeping input order within a group.
func naiveGroups(rows []types.Row, cols []int) (order []string, groups map[string][]types.Row) {
	groups = map[string][]types.Row{}
	for _, r := range rows {
		k := types.KeyString(r, cols)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	return order, groups
}

func keyValues(r types.Row, cols []int) []types.Value {
	vals := make([]types.Value, len(cols))
	for i, c := range cols {
		vals[i] = r[c]
	}
	return vals
}

func tableCases() []struct {
	name string
	rows []types.Row
	cols []int
} {
	ints := make([]types.Row, 0, 40)
	for i := 0; i < 40; i++ {
		ints = append(ints, types.Row{types.Int(int64(i % 7)), types.Int(int64(i))})
	}
	unique := make([]types.Row, 0, 50)
	for i := 0; i < 50; i++ {
		unique = append(unique, types.Row{types.Int(int64(i)), types.Str(fmt.Sprint("v", i))})
	}
	twoCol := make([]types.Row, 0, 60)
	for i := 0; i < 60; i++ {
		twoCol = append(twoCol, types.Row{types.Int(int64(i % 3)), types.Float(float64(i)), types.Str([]string{"a", "b"}[i%2])})
	}
	return []struct {
		name string
		rows []types.Row
		cols []int
	}{
		{"int keys", ints, []int{0}},
		{"int keys, second column", ints, []int{1}},
		{"numerics collapse", []types.Row{
			{types.Int(3), types.Str("a")},
			{types.Float(3.0), types.Str("b")},
			{types.Int(4), types.Str("c")},
			{types.Float(3.5), types.Str("d")},
			{types.Int(3), types.Str("e")},
		}, []int{0}},
		{"strings", []types.Row{
			{types.Str("x"), types.Int(1)},
			{types.Str(""), types.Int(2)},
			{types.Str("y"), types.Int(3)},
			{types.Str("x"), types.Int(4)},
			{types.Str(""), types.Int(5)},
		}, []int{0}},
		{"nulls", []types.Row{
			{types.Null(), types.Int(1)},
			{types.Int(0), types.Int(2)},
			{types.Null(), types.Int(3)},
			{types.Str(""), types.Int(4)},
		}, []int{0}},
		{"two-column keys", twoCol, []int{2, 0}},
		{"empty input", nil, []int{0}},
		{"one key per row", unique, []int{0}},
	}
}

func TestRowTableBucketsMatchNaiveGrouping(t *testing.T) {
	for _, tc := range tableCases() {
		t.Run(tc.name, func(t *testing.T) {
			tab := BuildRowTable(tc.rows, tc.cols)
			order, groups := naiveGroups(tc.rows, tc.cols)
			if tab.Len() != len(order) {
				t.Fatalf("Len = %d, want %d distinct keys", tab.Len(), len(order))
			}
			for _, k := range order {
				want := groups[k]
				got := tab.ProbeRow(want[0], tc.cols)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("bucket %q = %v, want %v (input order)", k, got, want)
				}
			}
			// Rows() holds every input row once, each bucket one
			// contiguous run.
			rows := tab.Rows()
			if len(rows) != len(tc.rows) {
				t.Fatalf("Rows() has %d rows, want %d", len(rows), len(tc.rows))
			}
			runs := 0
			for i, r := range rows {
				if i == 0 || types.KeyString(r, tc.cols) != types.KeyString(rows[i-1], tc.cols) {
					runs++
				}
			}
			if runs != len(order) {
				t.Errorf("Rows() has %d key runs, want one per key (%d)", runs, len(order))
			}
		})
	}
}

func TestRowTableProbesAgree(t *testing.T) {
	for _, tc := range tableCases() {
		t.Run(tc.name, func(t *testing.T) {
			tab := BuildRowTable(tc.rows, tc.cols)
			for _, r := range tc.rows {
				byRow := tab.ProbeRow(r, tc.cols)
				byVals := tab.ProbeValues(keyValues(r, tc.cols))
				if len(byRow) == 0 || !reflect.DeepEqual(byRow, byVals) {
					t.Errorf("probe %v: ProbeRow = %v, ProbeValues = %v", r, byRow, byVals)
				}
			}
			miss := make([]types.Value, len(tc.cols))
			for i := range miss {
				miss[i] = types.Str("no such key")
			}
			if got := tab.ProbeValues(miss); got != nil {
				t.Errorf("ProbeValues(miss) = %v, want nil", got)
			}
			missRow := make(types.Row, 3)
			for i := range missRow {
				missRow[i] = types.Str("no such key")
			}
			if got := tab.ProbeRow(missRow, tc.cols); got != nil {
				t.Errorf("ProbeRow(miss) = %v, want nil", got)
			}
		})
	}
}

func TestRowTableOwnsItsRows(t *testing.T) {
	for _, tc := range tableCases() {
		t.Run(tc.name, func(t *testing.T) {
			saved := types.CloneRows(tc.rows)
			in := types.CloneRows(tc.rows)
			tab := BuildRowTable(in, tc.cols)
			want := make([][]types.Row, len(saved))
			for i, r := range saved {
				want[i] = types.CloneRows(tab.ProbeRow(r, tc.cols))
			}
			for _, r := range in {
				for j := range r {
					r[j] = types.Str("overwritten")
				}
			}
			for i, r := range saved {
				if got := tab.ProbeRow(r, tc.cols); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("after overwriting the input, probe %v = %v, want %v", r, got, want[i])
				}
			}
		})
	}
}

// A build allocates a fixed number of times: the slab and offset layout
// replaced one bucket slice per key. Each side takes the least of three
// measurements, so a stray allocation elsewhere in the process does not
// count.
func TestRowTableBuildAllocsIndependentOfKeys(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the table's")
	}
	const n = 10000
	build := func(keys int) float64 {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.Int(int64(i % keys)), types.Int(int64(i))}
		}
		least := math.Inf(1)
		for range 3 {
			least = min(least, testing.AllocsPerRun(10, func() { BuildRowTable(rows, []int{0}) }))
		}
		return least
	}
	few, many := build(10), build(n)
	if few != many {
		t.Errorf("BuildRowTable allocs: %v at 10 keys, %v at %d keys; want equal", few, many, n)
	}
}

// TestRowTableKeyEqualityMatchesReference holds keyEqual's and
// ProbeValues' int fast path to the generic path over every pair of
// two-column keys drawn from values where the two could part: ints around
// the edges of float64's exact range and of int64, ±0, NaN, infinities,
// ints and floats of equal value, and every other kind. Key columns compare
// with Value.Equal, and a probe finds a row whose key compares equal and
// also hashes equal under HashValue folded over the columns.
func TestRowTableKeyEqualityMatchesReference(t *testing.T) {
	const p53 = 1 << 53
	vals := []types.Value{
		types.Int(0), types.Int(1), types.Int(-1), types.Int(p53), types.Int(-p53), types.Int(p53 + 1), types.Int(-p53 - 1),
		types.Int(math.MaxInt64), types.Int(-math.MaxInt64), types.Int(math.MinInt64), types.Int(3),
		types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
		types.Float(3), types.Float(p53),
		types.Bool(true), types.Null(), types.Str(""), types.Str("3"),
	}
	refHash := func(r types.Row) uint64 {
		h := types.HashRow(0, nil) // the offset basis
		for _, v := range r {
			h = types.HashValue(h, v)
		}
		return h
	}
	cols := []int{0, 1}
	for _, x := range vals {
		for _, y := range vals {
			a := types.Row{x, y}
			tab := BuildRowTable([]types.Row{a}, cols)
			for _, p := range vals {
				for _, q := range vals {
					b := types.Row{p, q}
					equal := x.Equal(p) && y.Equal(q)
					if got := keyEqual(a, cols, b, cols); got != equal {
						t.Fatalf("keyEqual(%v, %v) = %v, Value.Equal says %v", a, b, got, equal)
					}
					want := equal && refHash(a) == refHash(b)
					if got := len(tab.ProbeValues(b)) == 1; got != want {
						t.Fatalf("table of %v: ProbeValues(%v) hit = %v, want %v", a, b, got, want)
					}
					if got := len(tab.ProbeRow(b, cols)) == 1; got != want {
						t.Fatalf("table of %v: ProbeRow(%v) hit = %v, want %v", a, b, got, want)
					}
				}
			}
		}
	}
}
