package types

import (
	"bytes"
	"math"
	"testing"
)

// The generic paths the int fast paths of HashRow, HashRowKey, sameKey,
// AggKind.Improves, AggKind.Combine and Combiner.Fold must reproduce bit for
// bit: a hash is HashValue folded over the columns, key equality is the
// equality of AppendKey's bytes, and the fold goes through Value.Compare
// and Value.Add after setting NULL inputs aside, as SQL's aggregates do.

func refHashRow(seed uint64, r Row) uint64 {
	h := seed
	if h == 0 {
		h = fnvOffset
	}
	for _, v := range r {
		h = HashValue(h, v)
	}
	return h
}

func refHashRowKey(r Row, key []int) uint64 {
	h := uint64(fnvOffset)
	for _, i := range key {
		h = HashValue(h, r[i])
	}
	return h
}

func refSameKey(a, b Row, key []int) bool {
	return bytes.Equal(AppendKey(nil, a, key), AppendKey(nil, b, key))
}

func refImproves(a AggKind, v, cur Value) bool {
	switch a {
	case AggMin, AggMax:
		if v.IsNull() || cur.IsNull() {
			return !v.IsNull()
		}
		if a == AggMin {
			return v.Compare(cur) < 0
		}
		return v.Compare(cur) > 0
	case AggSum, AggCount:
		return v.AsFloat() != 0
	default:
		return false
	}
}

func refCombine(a AggKind, cur, v Value) Value {
	switch a {
	case AggMin, AggMax, AggSum, AggCount:
		switch {
		case v.IsNull():
			return cur
		case cur.IsNull():
			return v
		case a == AggMin && v.Compare(cur) < 0, a == AggMax && v.Compare(cur) > 0:
			return v
		case a == AggSum, a == AggCount:
			return cur.Add(v)
		}
		return cur
	default:
		return v
	}
}

// sameBits reports whether two values are identical, floats by their bits.
func sameBits(x, y Value) bool {
	return x.K == y.K && x.I == y.I && math.Float64bits(x.F) == math.Float64bits(y.F) && x.S == y.S
}

var allAggKinds = [...]AggKind{AggNone, AggMin, AggMax, AggSum, AggCount, AggAvg}

// checkFastPaths compares every fast path with its reference over the
// pair x, y: as one-column keys, as the two-column rows (x, y) and (y, x),
// and as the operands of every aggregate's Improves and Combine.
func checkFastPaths(t *testing.T, x, y Value) {
	t.Helper()
	a, b := Row{x, y}, Row{y, x}
	for _, key := range [][]int{{0}, {1}, {0, 1}, {1, 0}} {
		if got, want := sameKey(a, key, b, key), refSameKey(a, b, key); got != want {
			t.Fatalf("sameKey(%v, %v, %v) = %v, AppendKey bytes say %v", a, b, key, got, want)
		}
		if got, want := HashRowKey(a, key), refHashRowKey(a, key); got != want {
			t.Fatalf("HashRowKey(%v, %v) = %#x, HashValue gives %#x", a, key, got, want)
		}
	}
	for _, seed := range []uint64{0, 7} {
		if got, want := HashRow(seed, a), refHashRow(seed, a); got != want {
			t.Fatalf("HashRow(%d, %v) = %#x, HashValue gives %#x", seed, a, got, want)
		}
	}
	for _, k := range allAggKinds {
		if got, want := k.Improves(x, y), refImproves(k, x, y); got != want {
			t.Fatalf("%v.Improves(%v, %v) = %v, Compare gives %v", k, x, y, got, want)
		}
		if got, want := k.Combine(x, y), refCombine(k, x, y); !sameBits(got, want) {
			t.Fatalf("%v.Combine(%v, %v) = %#v, Compare/Add give %#v", k, x, y, got, want)
		}
		checkFold(t, k, x, y)
	}
}

// checkFold folds y into a group opened with x and requires the group's
// value to be Combine(x, y), bit for bit, and y's row to be left as it was.
func checkFold(t *testing.T, k AggKind, x, y Value) {
	t.Helper()
	var c Combiner
	c.Reset([]int{0}, 1, k)
	c.Fold(Row{Str("g"), x}, nil)
	r := Row{Str("g"), y}
	g, fresh := c.Fold(r, nil)
	if fresh || len(c.Groups()) != 1 {
		t.Fatalf("%v: folding into an open group opened another", k)
	}
	if want := k.Combine(x, y); !sameBits(g[1], want) {
		t.Fatalf("%v: Fold of %v into %v gives %#v, Combine gives %#v", k, y, x, g[1], want)
	}
	if !sameBits(r[1], y) {
		t.Fatalf("%v: Fold of %v changed the incoming row to %#v", k, y, r[1])
	}
}

// TestFoldMatchesCombine holds Combiner.Fold's in-place int path to
// AggKind.Combine over every pair of values and every aggregate, and pins
// what both give where it matters: int sums wrap at ±2^63 as Go's + does,
// and a NULL input leaves the other side as it was.
func TestFoldMatchesCombine(t *testing.T) {
	vals := fastPathValues()
	for _, k := range allAggKinds {
		for _, x := range vals {
			for _, y := range vals {
				checkFold(t, k, x, y)
			}
		}
	}
	for _, tc := range []struct {
		k          AggKind
		x, y, want Value
	}{
		{AggSum, Int(math.MaxInt64), Int(1), Int(math.MinInt64)},
		{AggSum, Int(math.MinInt64), Int(-1), Int(math.MaxInt64)},
		{AggCount, Int(math.MaxInt64), Int(math.MaxInt64), Int(-2)},
		{AggMin, Int(math.MinInt64), Int(math.MaxInt64), Int(math.MinInt64)},
		{AggMax, Int(math.MinInt64), Int(math.MaxInt64), Int(math.MaxInt64)},
		{AggMin, Null(), Int(3), Int(3)},
		{AggMin, Int(3), Null(), Int(3)},
		{AggMax, Float(2), Null(), Float(2)},
		{AggSum, Null(), Float(2.5), Float(2.5)},
		{AggSum, Int(2), Null(), Int(2)},
		{AggMin, Null(), Null(), Null()},
	} {
		var c Combiner
		c.Reset([]int{0}, 1, tc.k)
		c.Fold(Row{Int(0), tc.x}, nil)
		if g, _ := c.Fold(Row{Int(0), tc.y}, nil); !sameBits(g[1], tc.want) {
			t.Errorf("%v: Fold of %v into %v gives %v, want %v", tc.k, tc.y, tc.x, g[1], tc.want)
		}
	}
}

// fastPathValues are the values where an int fast path could part from the
// generic one: ints around the edges of float64's exact range and of int64,
// the floats whose bits and values disagree (±0, NaN), ints and floats of
// equal value, and every other kind.
func fastPathValues() []Value {
	const p53 = 1 << 53
	return []Value{
		Int(0), Int(1), Int(-1), Int(p53), Int(-p53), Int(p53 + 1), Int(-p53 - 1),
		Int(math.MaxInt64), Int(-math.MaxInt64), Int(math.MinInt64), Int(3),
		Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(3), Float(p53), Float(-p53),
		Bool(true), Bool(false), Null(), Str(""), Str("a"), Str("3"),
	}
}

// TestKeyFastPathsMatchReference holds the int fast paths of the key hash,
// the key equality and the aggregate fold to their generic references over
// every pair of values, bit for bit: partition routing, every group table
// and the shuffle's bytes depend on them agreeing.
func TestKeyFastPathsMatchReference(t *testing.T) {
	vals := fastPathValues()
	for _, x := range vals {
		for _, y := range vals {
			checkFastPaths(t, x, y)
		}
	}
	// Two-column keys whose columns come from different pairs.
	for _, x := range vals {
		for _, y := range vals {
			for _, z := range vals {
				a, b := Row{x, y}, Row{z, y}
				if got, want := sameKey(a, []int{0, 1}, b, []int{0, 1}), refSameKey(a, b, []int{0, 1}); got != want {
					t.Fatalf("sameKey(%v, %v) = %v, AppendKey bytes say %v", a, b, got, want)
				}
			}
		}
	}
}
