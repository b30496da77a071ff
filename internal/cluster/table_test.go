package cluster

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

// naiveGroups groups rows by their AppendKey bytes (the one key relation,
// under which Int(3) and Float(3.0) coincide), keeping input order within a
// group, and leaves out the rows whose key holds a NULL, which join
// nothing.
func naiveGroups(rows []types.Row, cols []int) (order []string, groups map[string][]types.Row) {
	groups = map[string][]types.Row{}
	for _, r := range rows {
		if types.HasNullKey(r, cols) {
			continue
		}
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
			// Rows() holds every input row with no NULL key once, each
			// bucket one contiguous run.
			rows := tab.Rows()
			kept := 0
			for _, k := range order {
				kept += len(groups[k])
			}
			if len(rows) != kept {
				t.Fatalf("Rows() has %d rows, want %d", len(rows), kept)
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
				if (len(byRow) == 0) != types.HasNullKey(r, tc.cols) || !reflect.DeepEqual(byRow, byVals) {
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
				if got := types.CloneRows(tab.ProbeRow(r, tc.cols)); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("after overwriting the input, probe %v = %v, want %v", r, got, want[i])
				}
			}
		})
	}
}

// A build allocates a fixed number of times, at most 12: the slab and
// offset layout replaced one bucket slice per key. Each side takes the least of three
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
	t.Logf("BuildRowTable of %d rows: %v allocs", n, many)
	if few != many {
		t.Errorf("BuildRowTable allocs: %v at 10 keys, %v at %d keys; want equal", few, many, n)
	}
	if many > 12 {
		t.Errorf("BuildRowTable allocs %v times, want at most 12", many)
	}
}

// refHit is the reference for a probe of a table holding build: it hits iff
// the AppendKey bytes are equal and no key column on either side is NULL.
func refHit(build types.Row, bcols []int, probe types.Row, pcols []int) bool {
	return !types.HasNullKey(build, bcols) && !types.HasNullKey(probe, pcols) &&
		types.KeyString(build, bcols) == types.KeyString(probe, pcols)
}

// TestRowTableKeyEqualityMatchesReference holds ProbeRow and ProbeValues to
// the one key relation over every pair of two-column keys drawn from values
// where relations could part: ints around the edges of float64's exact
// range and of int64, ±0, NaN, infinities, ints and floats of equal value,
// and every other kind. A probe hits iff the KeyString bytes are equal and
// no key column is NULL, so Int(2^53) and Int(2^53+1) match (until exact
// ints, ROADMAP item 24(i), change the relation everywhere at once), -0.0
// and +0.0 do not, NaN matches NaN and NULL matches nothing.
func TestRowTableKeyEqualityMatchesReference(t *testing.T) {
	const p53 = 1 << 53
	vals := []types.Value{
		types.Int(0), types.Int(1), types.Int(-1), types.Int(p53), types.Int(-p53), types.Int(p53 + 1), types.Int(-p53 - 1),
		types.Int(math.MaxInt64), types.Int(-math.MaxInt64), types.Int(math.MinInt64), types.Int(3),
		types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
		types.Float(3), types.Float(p53),
		types.Bool(true), types.Null(), types.Str(""), types.Str("3"),
	}
	cols := []int{0, 1}
	for _, x := range vals {
		for _, y := range vals {
			a := types.Row{x, y}
			tab := BuildRowTable([]types.Row{a}, cols)
			for _, p := range vals {
				for _, q := range vals {
					b := types.Row{p, q}
					want := refHit(a, cols, b, cols)
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

// FuzzRowTable builds a table from every pair of the values FuzzRowKey's
// inputs make, as two-column keys with the row's position as payload, and
// holds every ProbeRow and ProbeValues to a reference: a Go map keyed by
// KeyString that leaves out the rows with a NULL key, buckets in input
// order. Probes come both aligned with the table's key columns and from
// the probe row's own columns in the other order. Buckets compare by their
// rows' positions, since a NaN key is not reflect.DeepEqual to itself.
func FuzzRowTable(f *testing.F) {
	f.Add(int64(0), 0.0, "", "x", true)
	f.Add(int64(-1), 3.0, "abc", "abd", false)
	f.Add(int64(1<<53), -0.0, "π", "", true)
	f.Add(int64(1<<53+1), math.NaN(), "3", "3", false)
	cols, swapped := []int{0, 1}, []int{1, 0}
	f.Fuzz(func(t *testing.T, n int64, fv float64, s1, s2 string, b bool) {
		vals := [...]types.Value{types.Int(n), types.Float(fv), types.Float(float64(n)), types.Int(int64(fv)),
			types.Float(-fv), types.Str(s1), types.Str(s2), types.Bool(b), types.Null()}
		var rows []types.Row
		for _, x := range vals {
			for _, y := range vals {
				rows = append(rows, types.Row{x, y, types.Int(int64(len(rows)))})
			}
		}
		_, ref := naiveGroups(rows, cols)
		tab := BuildRowTable(rows, cols)
		kept := 0
		for _, g := range ref {
			kept += len(g)
		}
		if len(tab.Rows()) != kept {
			t.Fatalf("table holds %d rows, want the %d with no NULL key", len(tab.Rows()), kept)
		}
		for _, x := range vals {
			for _, y := range vals {
				var want []types.Row
				if probe := (types.Row{x, y}); !types.HasNullKey(probe, cols) {
					want = ref[types.KeyString(probe, cols)]
				}
				if got := tab.ProbeRow(types.Row{x, y}, cols); !slices.Equal(positions(got), positions(want)) {
					t.Fatalf("ProbeRow(%v, %v) = %v, want %v", x, y, got, want)
				}
				if got := tab.ProbeRow(types.Row{y, x}, swapped); !slices.Equal(positions(got), positions(want)) {
					t.Fatalf("ProbeRow(%v, %v) by swapped columns = %v, want %v", x, y, got, want)
				}
				if got := tab.ProbeValues([]types.Value{x, y}); !slices.Equal(positions(got), positions(want)) {
					t.Fatalf("ProbeValues(%v, %v) = %v, want %v", x, y, got, want)
				}
			}
		}
	})
}

// positions lists the payload column of FuzzRowTable's rows.
func positions(rows []types.Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[2].I
	}
	return out
}
