package types

import "strings"

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
// increment is nonzero.
func (a AggKind) Improves(v, cur Value) bool {
	switch a {
	case AggMin:
		return v.Compare(cur) < 0
	case AggMax:
		return v.Compare(cur) > 0
	case AggSum, AggCount:
		return v.AsFloat() != 0
	default:
		return false
	}
}

// Combine merges a new contribution v into the accumulator cur:
// min/max keep the better value; sum/count add.
func (a AggKind) Combine(cur, v Value) Value {
	switch a {
	case AggMin:
		if v.Compare(cur) < 0 {
			return v
		}
		return cur
	case AggMax:
		if v.Compare(cur) > 0 {
			return v
		}
		return cur
	case AggSum, AggCount:
		return cur.Add(v)
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

// Combiner is the map-side combine of the paper's Algorithm 5, line 5,
// with its group index kept across calls: a reused Combiner allocates only
// for a call with more groups than any before it. Each call first deletes
// the previous call's keys — O(its groups), where clear costs O(peak map
// capacity) — so small deltas after one large step stay cheap. The zero
// value is ready to use; a Combiner is not safe for concurrent use.
type Combiner struct {
	packed map[PackedKey]int // numeric keys of up to three columns
	strs   map[string]int    // the KeyString fallback
	pkeys  []PackedKey       // the keys the last call inserted, for the reset
	skeys  []string
}

// Combine folds rows sharing the key columns into the first row of each
// group, combining column valIdx with kind. The caller must own rows:
// survivors are updated in place and compacted into a prefix of rows' own
// backing array, which is returned in first-appearance order.
func (c *Combiner) Combine(rows []Row, key []int, valIdx int, kind AggKind) []Row {
	c.pkeys = forget(c.packed, c.pkeys)
	c.skeys = forget(c.strs, c.skeys)
	if len(rows) == 0 {
		return rows
	}
	// Packed fast path for numeric keys of up to three columns. Check
	// packability up front — the aggregation below mutates rows, so the
	// path must be committed before any Combine runs.
	packable := len(key) <= 3
	if packable {
		for _, r := range rows {
			if _, ok := PackRow(r, key); !ok {
				packable = false
				break
			}
		}
	}
	out := rows[:0] // the write index never passes the read index
	if packable {
		if c.packed == nil {
			c.packed = make(map[PackedKey]int, len(rows))
		}
		for _, r := range rows {
			k, _ := PackRow(r, key)
			if i, hit := c.packed[k]; hit {
				out[i][valIdx] = kind.Combine(out[i][valIdx], r[valIdx])
				continue
			}
			c.packed[k] = len(out)
			c.pkeys = append(c.pkeys, k)
			out = append(out, r)
		}
		return out
	}
	if c.strs == nil {
		c.strs = make(map[string]int, len(rows))
	}
	for _, r := range rows {
		k := KeyString(r, key)
		if i, hit := c.strs[k]; hit {
			out[i][valIdx] = kind.Combine(out[i][valIdx], r[valIdx])
			continue
		}
		c.strs[k] = len(out)
		c.skeys = append(c.skeys, k)
		out = append(out, r)
	}
	return out
}

// forget deletes keys from m and returns keys emptied for reuse.
func forget[K comparable](m map[K]int, keys []K) []K {
	for _, k := range keys {
		delete(m, k)
	}
	clear(keys)
	return keys[:0]
}
