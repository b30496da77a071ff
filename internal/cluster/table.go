package cluster

import "github.com/rasql/rasql-go/internal/types"

// RowTable is the hash-join build side: rows indexed by a column subset,
// probed for the bucket of rows matching a key. Unlike the incremental
// types.Combiner that backs State, a RowTable sees all of its rows up
// front (the hybrid scheduling policy rebuilds co-partitioned tables after
// every remote fetch, so builds are hot), which admits a leaner layout:
//
//   - the slot table is sized once from len(rows), so it never rehashes;
//   - keys are hashed straight from their Values (types.HashRowKey) and
//     compared against the first row of a bucket with Value.Equal — no
//     wire encoding, no key arena;
//   - each slot packs the bucket id with a 32-bit hash tag, so a probe
//     touches one cache line per step and only compares values on a tag
//     hit;
//   - rows are stored clustered by key, CSR-style: bucket e is the range
//     rows[starts[e]:starts[e+1]], and the rows' values are copied into one
//     shared slab in that order, so reading a bucket walks contiguous
//     memory instead of chasing one pointer per matched row.
//
// The table owns its rows: the build copies every value, so the input may
// be reused or dropped once BuildRowTable returns, and a build allocates a
// fixed number of times whatever the number of keys. Within a bucket rows
// keep their input order. Hash and equality both normalize numerics
// (Int(3) matches Float(3.0)). Probes are read-only and allocation-free,
// safe from any goroutine once the build returns.
type RowTable struct {
	cols []int
	// slots is open-addressed: (bucket+1)<<32 | uint32(hash), 0 = empty;
	// len is a power of two chosen at build so load stays under 1/2.
	slots []uint64
	mask  uint64
	// starts has one entry per bucket plus a sentinel: bucket e is
	// rows[starts[e]:starts[e+1]].
	starts []int32
	// rows are headers into one value slab, in bucket order.
	rows []types.Row
}

// BuildRowTable indexes a copy of rows on the given key columns.
func BuildRowTable(rows []types.Row, cols []int) *RowTable {
	t := &RowTable{cols: append([]int(nil), cols...)}
	if len(rows) == 0 {
		return t
	}
	nslots := 8
	for nslots < 2*len(rows) {
		nslots <<= 1
	}
	t.slots = make([]uint64, nslots)
	t.mask = uint64(nslots - 1)

	// Pass 1: give every row its bucket id and count the rows per bucket
	// (in starts[e+1], ready for the prefix sum). first[e] is the input
	// row that opened bucket e, its key's representative until pass 2.
	ids := make([]int32, len(rows))
	first := make([]int32, 0, len(rows))
	starts := make([]int32, len(rows)+1)
	for i, r := range rows {
		h := types.HashRowKey(r, cols)
		s := h & t.mask
		for {
			slot := t.slots[s]
			if slot == 0 {
				e := len(first)
				first = append(first, int32(i))
				t.slots[s] = uint64(e+1)<<32 | uint64(uint32(h))
				ids[i] = int32(e)
				break
			}
			if uint32(slot) == uint32(h) {
				e := int(slot>>32) - 1
				if keyEqual(rows[first[e]], cols, r, cols) {
					ids[i] = int32(e)
					break
				}
			}
			s = (s + 1) & t.mask
		}
		starts[ids[i]+1]++
	}
	nkeys := len(first)
	t.starts = starts[:nkeys+1]
	for e := 1; e <= nkeys; e++ {
		t.starts[e] += t.starts[e-1]
	}

	// Pass 2: place each row at its bucket's next free position (first is
	// reused as the per-bucket cursor), then copy the values into one slab
	// in that order.
	cursor := first[:nkeys]
	copy(cursor, t.starts)
	placed := make([]types.Row, len(rows))
	for i, r := range rows {
		placed[cursor[ids[i]]] = r
		cursor[ids[i]]++
	}
	t.rows = types.CloneRows(placed)
	return t
}

// keyEqual reports whether a's values at acols equal b's at bcols.
func keyEqual(a types.Row, acols []int, b types.Row, bcols []int) bool {
	for i, c := range acols {
		if !sameValue(&a[c], &b[bcols[i]]) {
			return false
		}
	}
	return true
}

// sameValue is Value.Equal with the int pair inline.
func sameValue(x, y *types.Value) bool {
	if x.K == types.KindInt && y.K == types.KindInt {
		return x.I == y.I
	}
	return x.Equal(*y)
}

// bucket returns bucket e's rows, capped so an append cannot spill into the
// next bucket.
func (t *RowTable) bucket(e int) []types.Row {
	lo, hi := t.starts[e], t.starts[e+1]
	return t.rows[lo:hi:hi]
}

// ProbeRow returns the bucket matching the probe row's values at probeCols
// (aligned with the table's key columns).
func (t *RowTable) ProbeRow(r types.Row, probeCols []int) []types.Row {
	if len(t.slots) == 0 {
		return nil
	}
	h := types.HashRowKey(r, probeCols)
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		slot := t.slots[s]
		if slot == 0 {
			return nil
		}
		if uint32(slot) == uint32(h) {
			e := int(slot>>32) - 1
			if keyEqual(t.rows[t.starts[e]], t.cols, r, probeCols) {
				return t.bucket(e)
			}
		}
	}
}

// ProbeValues returns the bucket matching the given key values.
func (t *RowTable) ProbeValues(vals []types.Value) []types.Row {
	if len(t.slots) == 0 {
		return nil
	}
	h := types.HashRow(0, types.Row(vals))
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		slot := t.slots[s]
		if slot == 0 {
			return nil
		}
		if uint32(slot) == uint32(h) {
			e := int(slot>>32) - 1
			repr := t.rows[t.starts[e]]
			ok := true
			for i, c := range t.cols {
				if !sameValue(&repr[c], &vals[i]) {
					ok = false
					break
				}
			}
			if ok {
				return t.bucket(e)
			}
		}
	}
}

// Rows returns the table's own copy of the build input in bucket order
// (no copy; callers must not mutate) — used when a table must be
// re-shipped to another worker.
func (t *RowTable) Rows() []types.Row { return t.rows }
