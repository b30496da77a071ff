package relation

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

func edgeSchema() types.Schema {
	return types.NewSchema(types.Col("Src", types.KindInt), types.Col("Dst", types.KindInt))
}

func testRel() *Relation {
	r := New("edge", edgeSchema())
	r.Append(types.Row{types.Int(1), types.Int(2)})
	r.Append(types.Row{types.Int(2), types.Int(3)})
	r.Append(types.Row{types.Int(1), types.Int(2)})
	return r
}

func TestDedup(t *testing.T) {
	r := testRel()
	r.Dedup()
	if r.Len() != 2 {
		t.Errorf("after dedup: %d rows, want 2", r.Len())
	}
}

func TestSort(t *testing.T) {
	r := New("x", edgeSchema())
	r.Append(types.Row{types.Int(2), types.Int(1)})
	r.Append(types.Row{types.Int(1), types.Int(9)})
	r.Append(types.Row{types.Int(1), types.Int(2)})
	r.Sort()
	want := []types.Row{
		{types.Int(1), types.Int(2)},
		{types.Int(1), types.Int(9)},
		{types.Int(2), types.Int(1)},
	}
	for i, w := range want {
		if !slices.EqualFunc(r.Rows[i], w, types.Value.Equal) {
			t.Errorf("row %d = %v, want %v", i, r.Rows[i], w)
		}
	}
}

func TestEqualAsSetAndBag(t *testing.T) {
	a := testRel()         // {(1,2) x2, (2,3)}
	b := testRel().Dedup() // {(1,2), (2,3)}
	if !a.EqualAsSet(b) {
		t.Error("set equality should ignore duplicates")
	}
	if a.EqualAsBag(b) {
		t.Error("bag equality should see the duplicate")
	}
	c := New("c", edgeSchema())
	c.Append(types.Row{types.Int(9), types.Int(9)})
	if a.EqualAsSet(c) {
		t.Error("different contents must not be set-equal")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := testRel()
	b := a.Clone()
	b.Rows[0][0] = types.Int(99)
	if a.Rows[0][0].Equal(types.Int(99)) {
		t.Error("clone must not share row storage")
	}
}

func TestFormatTruncation(t *testing.T) {
	r := testRel()
	s := r.Format(1)
	if !strings.Contains(s, "(2 more)") {
		t.Errorf("Format should note truncation: %q", s)
	}
	if !strings.Contains(r.String(), "edge") {
		t.Error("String should include the relation name")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := testRel()
	var buf strings.Builder
	if err := WriteCSV(&buf, r, ','); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(buf.String()), "edge", edgeSchema(), ',')
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsBag(r) {
		t.Errorf("CSV round trip mismatch:\n%v\n%v", got, r)
	}
}

func TestCSVNoHeader(t *testing.T) {
	in := "1,2\n3,4\n"
	got, err := ReadCSV(strings.NewReader(in), "e", edgeSchema(), ',')
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("got %d rows, want 2", got.Len())
	}
}

func TestCSVBadValue(t *testing.T) {
	in := "1,notanint\n"
	if _, err := ReadCSV(strings.NewReader(in), "e", edgeSchema(), ','); err == nil {
		t.Error("bad int should error")
	}
}

func TestCSVTabSeparated(t *testing.T) {
	in := "1\t2\n2\t3\n"
	got, err := ReadCSV(strings.NewReader(in), "e", edgeSchema(), '\t')
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("got %d rows, want 2", got.Len())
	}
}

// EqualAsBag reports whether two relations hold the same multiset of rows,
// ignoring order.
func (r *Relation) EqualAsBag(o *Relation) bool {
	return maps.Equal(rowCounts(r.Rows), rowCounts(o.Rows))
}

// rowCounts counts each row under its value-equality key.
func rowCounts(rows []types.Row) map[string]int {
	m := make(map[string]int, len(rows))
	for _, row := range rows {
		m[types.RowKeyString(row)]++
	}
	return m
}
