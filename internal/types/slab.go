package types

// RowSlab is a bump allocator for row storage with a single owner: rows are
// carved out of chunks that start small, double up to a cap and never move,
// so a handed-out row stays valid until the owner calls Reset (or drops the
// slab). A partition of the recursive view's state only appends within one
// execution and resets when the workspace that owns it starts the next; a
// per-step owner (the fixpoint workspace's scratch) resets at the start of
// each step. Either re-carves the chunks it already holds, so the steady
// state allocates nothing. The zero value is ready to use; a slab is not
// safe for concurrent use.
type RowSlab struct {
	chunks [][]Value
	cur    int // chunk being carved
	off    int // values of chunks[cur] already handed out
}

const (
	slabMinChunk = 128  // values: 64 two-column rows, ~5 KB
	slabMaxChunk = 8192 // values: ~320 KB
)

// Alloc returns a row of n values whose capacity is exactly n, so appending
// to it can never run into a neighbour. Its contents are unspecified after a
// Reset: the caller must assign every column.
func (s *RowSlab) Alloc(n int) Row {
	for s.cur < len(s.chunks) {
		if c := s.chunks[s.cur]; s.off+n <= len(c) {
			r := c[s.off : s.off+n : s.off+n]
			s.off += n
			return r
		}
		s.cur, s.off = s.cur+1, 0
	}
	size := slabMinChunk
	if len(s.chunks) > 0 {
		size = 2 * len(s.chunks[len(s.chunks)-1])
	}
	if size > slabMaxChunk {
		size = slabMaxChunk
	}
	if size < n {
		size = n
	}
	// Chunks double up to the cap, so a slab of N values refills
	// O(log N + N/cap) times, and a Reset slab re-carves what it holds.
	s.chunks = append(s.chunks, make([]Value, size))
	s.off = n
	return s.chunks[s.cur][:n:n]
}

// Clone copies r into the slab.
func (s *RowSlab) Clone(r Row) Row {
	c := s.Alloc(len(r))
	copy(c, r)
	return c
}

// Reset makes every chunk available again. Rows handed out before the call
// will be overwritten by later Allocs.
func (s *RowSlab) Reset() { s.cur, s.off = 0, 0 }

// CloneRows deep-copies rows into one exactly-sized slab: the copy owns its
// storage, and dropping it frees all of it.
func CloneRows(rows []Row) []Row {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	vals := make([]Value, n)
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = vals[:len(r):len(r)]
		copy(out[i], r)
		vals = vals[len(r):]
	}
	return out
}
