package types

import (
	"math"
	"slices"
	"strings"
)

// AggKind enumerates the monotonic aggregates RaSQL allows in recursion,
// plus AVG which is legal only in stratified (non-recursive) position.
type AggKind uint8

// The aggregate kinds.
const (
	AggNone AggKind = iota
	AggMin
	AggMax
	AggSum
	AggCount
	AggAvg // stratified-only; the paper notes avg is not monotonic
)

// String names the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	default:
		return "none"
	}
}

// ParseAgg recognizes an aggregate function name (case-insensitive).
func ParseAgg(name string) (AggKind, bool) {
	switch strings.ToLower(name) {
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	case "sum":
		return AggSum, true
	case "count":
		return AggCount, true
	case "avg":
		return AggAvg, true
	default:
		return AggNone, false
	}
}

// MonotonicInRecursion reports whether the aggregate may appear in a
// recursive view head under PreM (min/max) or monotonic-sum/count semantics.
func (a AggKind) MonotonicInRecursion() bool {
	switch a {
	case AggMin, AggMax, AggSum, AggCount:
		return true
	default:
		return false
	}
}

// Additive reports whether delta propagation carries increments (sum/count)
// rather than replacement values (min/max).
func (a AggKind) Additive() bool { return a == AggSum || a == AggCount }

// Improves reports whether candidate v improves on current cur under a
// min/max aggregate. For additive aggregates it reports whether the
// increment is nonzero. A NULL candidate improves on nothing, and any other
// candidate improves on a NULL current, as SQL's aggregates ignore NULL
// inputs.
func (a AggKind) Improves(v, cur Value) bool {
	if v.K == KindInt && cur.K == KindInt {
		// What Compare and AsFloat give two ints, without the calls.
		switch a {
		case AggMin:
			return v.I < cur.I
		case AggMax:
			return v.I > cur.I
		case AggSum, AggCount:
			return v.I != 0
		}
		return false
	}
	switch a {
	case AggMin:
		return !v.IsNull() && (cur.IsNull() || v.Compare(cur) < 0)
	case AggMax:
		return !v.IsNull() && (cur.IsNull() || v.Compare(cur) > 0)
	case AggSum, AggCount:
		return v.AsFloat() != 0
	default:
		return false
	}
}

// Combine merges a new contribution v into the accumulator cur:
// min/max keep the better value; sum/count add. A NULL on either side is
// ignored, as SQL's aggregates ignore NULL inputs: Combine(cur, NULL) is
// cur and Combine(NULL, v) is v.
func (a AggKind) Combine(cur, v Value) Value {
	if v.K == KindInt && cur.K == KindInt {
		// What Compare and Add give two ints (+ wraps), without the calls.
		switch a {
		case AggMin:
			if v.I < cur.I {
				return v
			}
			return cur
		case AggMax:
			if v.I > cur.I {
				return v
			}
			return cur
		case AggSum, AggCount:
			return Int(cur.I + v.I)
		}
		return v
	}
	switch a {
	case AggMin, AggMax, AggSum, AggCount:
		switch {
		case v.IsNull():
			return cur
		case cur.IsNull():
			return v
		case a.Additive():
			return cur.Add(v)
		case a.Improves(v, cur):
			return v
		}
		return cur
	default:
		return v
	}
}

// CountContribution normalizes a value for count() in recursion: numeric
// contributions are summed (so running counts propagate, as in the paper's
// Management query), non-numeric contributions count as 1 each (as in the
// Party Attendance query, which counts friend names).
func CountContribution(v Value) Value {
	if v.IsNumeric() {
		return v
	}
	return Int(1)
}

// Combiner is an open-addressed group table that folds rows into one row
// per group as they arrive. It is the map-side combine of the paper's
// Algorithm 5, line 5, and each partition of the recursive view's state
// (cluster.State), whose groups are the partition's rows. A reused Combiner
// allocates only for a call with more groups than any before it, and Reset
// zeroes only the slots the last call used, so small deltas after one large
// step stay cheap. It is also the key index of every join build side
// (cluster.RowTable), which Reserves it once and then only Looks up. The
// zero value is ready to use; a Combiner is not safe for concurrent use,
// apart from Lookups while nothing folds.
//
// Key columns compare as AppendKey's bytes would: numerics by the bits of
// their float64 image (Int(3) meets Float(3.0), -0.0 and +0.0 stay apart,
// NaN meets NaN), other values by kind and string, and NULL meets NULL.
// This is the engine's one key relation: grouping, UNION and the set state
// use it as it is, and joins use it with NULL matching nothing, because a
// build side leaves rows with a NULL key out. Changing what keys are equal
// (ROADMAP item 24) changes sameKey, hashNum and appendKeyValue only.
type Combiner struct {
	key    []int
	valIdx int
	kind   AggKind
	rows   []Row    // rows[id] is group id's row
	used   []uint32 // used[id] is the slot holding it, for the reset
	// slots is the table: (id+1)<<32 | uint32(hash), 0 = empty. A hash's
	// home slot comes from its high half, apart from the tag and from the
	// low bits partition routing consumes.
	slots []uint64
	mask  uint64
}

// Reset forgets the previous call's groups and folds the next rows on the
// key columns, combining column valIdx with kind.
func (c *Combiner) Reset(key []int, valIdx int, kind AggKind) {
	for _, s := range c.used {
		c.slots[s] = 0
	}
	c.rows, c.used = c.rows[:0], c.used[:0]
	c.key, c.valIdx, c.kind = key, valIdx, kind
}

// Fold combines r into the row of its group and returns that row with
// fresh false. When r opens a group, the group's row is a copy of r carved
// from arena, or r itself if arena is nil, and it returns that with fresh
// true.
//
// When the group's value and r's are both ints, a min/max/sum/count fold
// updates the group's value in place, as Combine would, without the call;
// every other pair goes through Combine.
func (c *Combiner) Fold(r Row, arena *RowSlab) (g Row, fresh bool) {
	if g, fresh = c.Group(r, arena); fresh {
		return g, true
	}
	cur, v := &g[c.valIdx], &r[c.valIdx]
	if cur.K == KindInt && v.K == KindInt {
		switch c.kind {
		case AggMin:
			cur.I = min(cur.I, v.I)
			return g, false
		case AggMax:
			cur.I = max(cur.I, v.I)
			return g, false
		case AggSum, AggCount:
			cur.I += v.I
			return g, false
		}
	}
	*cur = c.kind.Combine(*cur, *v)
	return g, false
}

// Group is Fold without the combine: it returns the row of r's group with
// fresh false, or opens the group as Fold does and returns its row with
// fresh true. The caller updates the group's row itself.
func (c *Combiner) Group(r Row, arena *RowSlab) (g Row, fresh bool) {
	if 4*(len(c.rows)+1) > 3*len(c.slots) {
		// Grow first if one more group would pass 3/4 load, so the slot
		// probe returns stays valid for insert. The table doubles, so it
		// grows O(log n) times over a Combiner's life.
		c.grow()
	}
	id, s, h := c.probe(r, c.key)
	if id >= 0 {
		return c.rows[id], false
	}
	if arena != nil {
		r = arena.Clone(r)
	}
	c.insert(s, h, r)
	return r, true
}

// Groups returns the row of every group in first-appearance order, valid
// until the next Reset. The slice is the Combiner's own: a caller may
// replace a group's row with another row of equal key.
func (c *Combiner) Groups() []Row { return c.rows }

// Truncate forgets every group after the first n, as if the rows that
// opened them had never arrived, in O(dropped groups): it zeroes only their
// slots. The groups that stay are still found, because a group's probe
// path holds only groups opened before it — linear probing never moves an
// earlier group past a later one, and grow reinserts in id order.
func (c *Combiner) Truncate(n int) {
	if n >= len(c.rows) {
		return
	}
	for _, s := range c.used[n:] {
		c.slots[s] = 0
	}
	c.rows, c.used = c.rows[:n], c.used[:n]
}

// Clone returns a copy with its own table and its own copies of the group
// rows, so folding into one leaves the other as it was.
func (c *Combiner) Clone() Combiner {
	d := *c
	d.rows = CloneRows(c.rows)
	d.used = slices.Clone(c.used)
	d.slots = slices.Clone(c.slots)
	return d
}

// Combine folds rows sharing the key columns into the first row of each
// group, combining column valIdx with kind. The caller must own rows:
// survivors are updated in place and compacted into a prefix of rows' own
// backing array, which is returned in first-appearance order.
func (c *Combiner) Combine(rows []Row, key []int, valIdx int, kind AggKind) []Row {
	c.Reset(key, valIdx, kind)
	out := rows[:0] // the write index never passes the read index
	for _, r := range rows {
		if g, fresh := c.Fold(r, nil); fresh {
			out = append(out, g)
		}
	}
	return out
}

// probe hashes r's values at cols and returns the id of the group whose
// key equals them, or -1 and the empty slot where a group with that hash
// goes, and the hash. It only reads the table.
func (c *Combiner) probe(r Row, cols []int) (id int, slot, h uint64) {
	h = HashRowKey(r, cols)
	if len(c.slots) == 0 {
		return -1, 0, h
	}
	for s := h >> 32 & c.mask; ; s = (s + 1) & c.mask {
		v := c.slots[s]
		if v == 0 {
			return -1, s, h
		}
		if uint32(v) == uint32(h) {
			if id := int(v>>32) - 1; sameKey(c.rows[id], c.key, r, cols) {
				return id, s, h
			}
		}
	}
}

// Lookup returns the id of the group whose key equals r's values at cols
// (aligned with the key columns), its index in Groups, or -1 if there is
// none. It only reads the table, so any number of goroutines may look up
// while nothing folds.
func (c *Combiner) Lookup(r Row, cols []int) int {
	id, _, _ := c.probe(r, cols)
	return id
}

// Reserve sizes the table once for up to n groups at half load, for a
// Combiner that is built in one go and then probed many times: folding n
// groups after it does not grow the table. Call it after Reset, on a
// Combiner with no groups.
func (c *Combiner) Reserve(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	c.slots, c.mask = make([]uint64, size), uint64(size-1)
	c.rows, c.used = make([]Row, 0, n), make([]uint32, 0, n)
}

// insert makes g the row of a new group with hash h at the empty slot s
// probe returned. Its appends amortize into capacity earlier calls grew.
func (c *Combiner) insert(s, h uint64, g Row) {
	c.slots[s] = uint64(len(c.rows)+1)<<32 | uint64(uint32(h))
	c.rows = append(c.rows, g)
	c.used = append(c.used, uint32(s))
}

func (c *Combiner) grow() {
	n := max(2*len(c.slots), 16)
	c.slots, c.mask = make([]uint64, n), uint64(n-1)
	for id, g := range c.rows {
		h := HashRowKey(g, c.key)
		s := h >> 32 & c.mask
		for c.slots[s] != 0 {
			s = (s + 1) & c.mask
		}
		c.slots[s] = uint64(id+1)<<32 | uint64(uint32(h))
		c.used[id] = uint32(s)
	}
}

// sameKey reports whether a's values at akey equal b's at bkey, column by
// column, under AppendKey's equality.
func sameKey(a Row, akey []int, b Row, bkey []int) bool {
	bkey = bkey[:len(akey)]
	for j, i := range akey {
		x, y := &a[i], &b[bkey[j]]
		if x.K == KindInt && y.K == KindInt {
			// No int's float64 image is NaN or -0: == is the bits' equality.
			if float64(x.I) != float64(y.I) {
				return false
			}
		} else if x.IsNumeric() || y.IsNumeric() {
			if !x.IsNumeric() || !y.IsNumeric() || math.Float64bits(x.AsFloat()) != math.Float64bits(y.AsFloat()) {
				return false
			}
		} else if x.K != y.K || x.K == KindString && x.S != y.S {
			return false
		}
	}
	return true
}
