// Package relation provides the in-memory relation abstraction: a schema
// plus a slice of rows, with helpers for building, sorting, deduplicating
// and comparing relations, and CSV input/output.
package relation

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"github.com/rasql/rasql-go/internal/types"
)

// Relation is an in-memory table: a schema and its rows.
type Relation struct {
	// Name is an optional identifier (catalog name or derived label).
	Name string
	// Schema describes the columns.
	Schema types.Schema
	// Rows holds the tuples. Callers may append directly while building.
	Rows []types.Row
}

// New creates an empty relation with the given name and schema.
func New(name string, schema types.Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// FromRows creates a relation from pre-built rows.
func FromRows(name string, schema types.Schema, rows []types.Row) *Relation {
	return &Relation{Name: name, Schema: schema, Rows: rows}
}

// Append adds a row. The row arity must match the schema; this is checked
// only in debug paths, not per append, to keep bulk loading cheap.
func (r *Relation) Append(row types.Row) { r.Rows = append(r.Rows, row) }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// Clone deep-copies the relation (rows are re-sliced; values are immutable).
func (r *Relation) Clone() *Relation {
	rows := make([]types.Row, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = row.Clone()
	}
	return &Relation{Name: r.Name, Schema: r.Schema, Rows: rows}
}

// Sort orders rows lexicographically in place and returns the relation.
func (r *Relation) Sort() *Relation {
	sort.Slice(r.Rows, func(i, j int) bool {
		return r.Rows[i].Compare(r.Rows[j]) < 0
	})
	return r
}

// Dedup removes duplicate rows (set semantics) in place and returns r.
func (r *Relation) Dedup() *Relation {
	r.Rows = DedupRows(r.Rows)
	return r
}

// DedupRows keeps the first of every set of equal rows, in order, compacted
// in place. Rows are equal when every column is, as a types.Combiner keyed
// on all of them finds keys equal, and the table is sized once for every
// row.
func DedupRows(rows []types.Row) []types.Row {
	if len(rows) == 0 {
		return rows
	}
	cols := make([]int, len(rows[0]))
	for i := range cols {
		cols[i] = i
	}
	var seen types.Combiner
	seen.Reset(cols, -1, types.AggNone)
	seen.Reserve(len(rows))
	out := rows[:0]
	for _, r := range rows {
		if _, fresh := seen.Group(r, nil); fresh {
			out = append(out, r)
		}
	}
	return out
}

// Aggregate applies γ — grouping on the key columns with kind on column
// valIdx — and returns the groups as a new relation of copied rows, in
// first-appearance order. It folds a copy of r's rows through a
// types.Combiner, the group table of the engine's map-side combine and
// state.
func (r *Relation) Aggregate(key []int, valIdx int, kind types.AggKind) *Relation {
	var c types.Combiner
	return FromRows(r.Name, r.Schema, c.Combine(types.CloneRows(r.Rows), key, valIdx, kind))
}

// EqualAsSet reports whether two relations hold the same set of rows,
// ignoring order and duplicates.
func (r *Relation) EqualAsSet(o *Relation) bool {
	return maps.Equal(rowSet(r.Rows), rowSet(o.Rows))
}

// rowSet keys each row by its value-equality key.
func rowSet(rows []types.Row) map[string]bool {
	m := make(map[string]bool, len(rows))
	for _, row := range rows {
		m[types.RowKeyString(row)] = true
	}
	return m
}

// String renders the relation as a small ASCII table, truncated to 20 rows.
func (r *Relation) String() string { return r.Format(20) }

// Format renders the relation as an ASCII table with at most maxRows rows.
func (r *Relation) Format(maxRows int) string {
	var b strings.Builder
	name := r.Name
	if name == "" {
		name = "relation"
	}
	fmt.Fprintf(&b, "%s %s: %d rows\n", name, r.Schema, len(r.Rows))
	n := len(r.Rows)
	if maxRows >= 0 && n > maxRows {
		n = maxRows
	}
	for i := 0; i < n; i++ {
		b.WriteString("  ")
		b.WriteString(r.Rows[i].String())
		b.WriteByte('\n')
	}
	if n < len(r.Rows) {
		fmt.Fprintf(&b, "  ... (%d more)\n", len(r.Rows)-n)
	}
	return b.String()
}
