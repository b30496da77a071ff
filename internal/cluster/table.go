package cluster

import "github.com/rasql/rasql-go/internal/types"

// RowTable is the hash-join build side: rows indexed by a column subset,
// probed for the bucket of rows matching a key. Its key index is a
// types.Combiner, the group table behind State and the map-side combine, so
// a join matches keys exactly as grouping does, under AppendKey's equality
// (Int(3) matches Float(3.0)). A RowTable sees all of its rows up front
// (the hybrid scheduling policy rebuilds co-partitioned tables after every
// remote fetch, so builds are hot), which admits a lean layout:
//
//   - the key index is sized once from len(rows) (Combiner.Reserve), so it
//     never rehashes, and each distinct key is one group whose id is its
//     bucket;
//   - rows are stored clustered by key, CSR-style: bucket e is the range
//     rows[starts[e]:starts[e+1]], and the rows' values are copied into one
//     shared slab in that order, so reading a bucket walks contiguous
//     memory instead of chasing one pointer per matched row; each key's
//     group row is its bucket's first slab row.
//
// A row whose key holds a NULL is left out: NULL = NULL is not true in SQL,
// so it could match no probe, and a probe with a NULL key finds no bucket.
// The table owns its rows: the build copies every value, so the input may
// be reused or dropped once BuildRowTable returns, and a build allocates a
// fixed number of times whatever the number of keys. Within a bucket rows
// keep their input order. Probes are read-only and allocation-free, safe
// from any goroutine once the build returns.
type RowTable struct {
	cols  []int
	ident []int // 0, 1, …: the key columns of ProbeValues' value list
	keys  types.Combiner
	// starts has one entry per bucket plus a sentinel: bucket e is
	// rows[starts[e]:starts[e+1]].
	starts []int32
	// rows are headers into one value slab, in bucket order.
	rows []types.Row
}

// BuildRowTable indexes a copy of rows on the given key columns.
func BuildRowTable(rows []types.Row, cols []int) *RowTable {
	colBuf := make([]int, 2*len(cols))
	t := &RowTable{cols: colBuf[:len(cols):len(cols)], ident: colBuf[len(cols):]}
	copy(t.cols, cols)
	for i := range t.ident {
		t.ident[i] = i
	}
	t.keys.Reset(t.cols, -1, types.AggNone)
	if len(rows) == 0 {
		return t
	}
	t.keys.Reserve(len(rows))

	// Pass 1: give every row its bucket id (-1 for a NULL key) and count
	// the rows per bucket in starts[e+1], ready for the prefix sum.
	ids := make([]int32, len(rows))
	starts := make([]int32, len(rows)+1)
	for i, r := range rows {
		if types.HasNullKey(r, cols) {
			ids[i] = -1
			continue
		}
		e := t.keys.Lookup(r, cols)
		if e < 0 {
			e = t.buckets()
			t.keys.Group(r, nil)
		}
		ids[i] = int32(e)
		starts[e+1]++
	}
	nkeys := t.buckets()
	t.starts = starts[:nkeys+1]
	for e := 1; e <= nkeys; e++ {
		t.starts[e] += t.starts[e-1]
	}

	// Pass 2: place each row at its bucket's next free position, with
	// starts[e] as bucket e's cursor, then shift the cursors, which end at
	// the next bucket's start, back into place. The values are copied into
	// one slab in that order.
	placed := make([]types.Row, t.starts[nkeys])
	for i, r := range rows {
		if e := ids[i]; e >= 0 {
			placed[t.starts[e]] = r
			t.starts[e]++
		}
	}
	copy(t.starts[1:], t.starts[:nkeys])
	t.starts[0] = 0
	t.rows = types.CloneRows(placed)
	// Groups is the index's own slice: re-home each key on the slab, so
	// the table keeps no reference into the input.
	for e, g := 0, t.keys.Groups(); e < nkeys; e++ {
		g[e] = t.rows[t.starts[e]]
	}
	return t
}

// buckets returns the number of distinct keys.
func (t *RowTable) buckets() int { return len(t.keys.Groups()) }

// bucket returns bucket e's rows, capped so an append cannot spill into the
// next bucket.
func (t *RowTable) bucket(e int) []types.Row {
	lo, hi := t.starts[e], t.starts[e+1]
	return t.rows[lo:hi:hi]
}

// ProbeRow returns the bucket matching the probe row's values at probeCols
// (aligned with the table's key columns).
func (t *RowTable) ProbeRow(r types.Row, probeCols []int) []types.Row {
	if e := t.keys.Lookup(r, probeCols); e >= 0 {
		return t.bucket(e)
	}
	return nil
}

// ProbeValues returns the bucket matching the given key values.
func (t *RowTable) ProbeValues(vals []types.Value) []types.Row {
	return t.ProbeRow(vals, t.ident)
}

// Rows returns the table's own copy of the build input in bucket order
// (no copy; callers must not mutate) — used when a table must be
// re-shipped to another worker. Rows with a NULL key are not in it.
func (t *RowTable) Rows() []types.Row { return t.rows }
