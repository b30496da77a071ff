package types

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	// Name is the column name as referenced in queries. Case-insensitive
	// lookup is performed by the analyzer; the stored name preserves case.
	Name string
	// Type is the declared kind of the column.
	Type Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from alternating name/kind pairs.
func NewSchema(cols ...Column) Schema { return Schema{Columns: cols} }

// Col is a convenience constructor for a Column.
func Col(name string, t Kind) Column { return Column{Name: name, Type: t} }

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.Columns) }

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Index returns the position of the named column (case-insensitive),
// or -1 if absent.
func (s Schema) Index(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// String renders the schema as "(name type, ...)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}
