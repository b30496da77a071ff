package types

import "strings"

// Row is a flat tuple of values.
type Row []Value

// Clone returns a deep-enough copy of the row (values are value types).
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Compare orders rows lexicographically.
func (r Row) Compare(o Row) int {
	n := len(r)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := r[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(r) < len(o):
		return -1
	case len(r) > len(o):
		return 1
	default:
		return 0
	}
}

// String renders the row as a comma-separated list in parentheses.
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
