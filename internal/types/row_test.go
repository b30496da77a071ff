package types

import (
	"strings"
	"testing"
)

func TestRowCloneIndependence(t *testing.T) {
	r := Row{Int(1), Str("a")}
	c := r.Clone()
	c[0] = Int(2)
	if !r[0].Equal(Int(1)) {
		t.Error("mutating clone must not affect original")
	}
}

func TestRowEqualAndCompare(t *testing.T) {
	a := Row{Int(1), Str("x")}
	b := Row{Int(1), Str("x")}
	c := Row{Int(1), Str("y")}
	short := Row{Int(1)}
	if !a.Equal(b) {
		t.Error("identical rows must be equal")
	}
	if a.Equal(c) || a.Equal(short) {
		t.Error("different rows must not be equal")
	}
	if a.Compare(b) != 0 || a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Error("row comparison ordering wrong")
	}
	if short.Compare(a) != -1 || a.Compare(short) != 1 {
		t.Error("prefix row should sort first")
	}
}

func TestRowString(t *testing.T) {
	r := Row{Int(1), Str("a")}
	if got := r.String(); got != "(1, a)" {
		t.Errorf("Row.String = %q", got)
	}
}

func TestSchemaLookup(t *testing.T) {
	s := NewSchema(Col("Src", KindInt), Col("Dst", KindInt), Col("Cost", KindFloat))
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Index("dst") != 1 {
		t.Error("Index should be case-insensitive")
	}
	if s.Index("missing") != -1 {
		t.Error("Index of missing column should be -1")
	}
	if s.Index("Cost") != 2 {
		t.Error("Index wrong")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := NewSchema(Col("A", KindInt), Col("B", KindString))
	b := NewSchema(Col("a", KindInt), Col("b", KindString))
	c := NewSchema(Col("A", KindInt), Col("B", KindInt))
	if !a.Equal(b) {
		t.Error("schemas differing only by case must be equal")
	}
	if a.Equal(c) {
		t.Error("schemas with different types must not be equal")
	}
	if a.Equal(NewSchema(Col("A", KindInt))) {
		t.Error("schemas with different arity must not be equal")
	}
}

func TestSchemaNamesAndString(t *testing.T) {
	s := NewSchema(Col("X", KindInt), Col("Y", KindFloat))
	names := s.Names()
	if len(names) != 2 || names[0] != "X" || names[1] != "Y" {
		t.Errorf("Names = %v", names)
	}
	if got := s.String(); got != "(X int, Y double)" {
		t.Errorf("String = %q", got)
	}
}

// Equal reports whether two rows are value-equal position by position.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether two schemas have the same column names and types.
func (s Schema) Equal(o Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if !strings.EqualFold(s.Columns[i].Name, o.Columns[i].Name) ||
			s.Columns[i].Type != o.Columns[i].Type {
			return false
		}
	}
	return true
}
