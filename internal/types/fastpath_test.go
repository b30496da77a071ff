package types

import (
	"bytes"
	"math"
	"testing"
)

// The generic paths the int fast paths of HashRow, HashRowKey, sameKey,
// AggKind.Improves and AggKind.Combine must reproduce bit for bit: a hash
// is HashValue folded over the columns, key equality is the equality of
// AppendKey's bytes, and the min/max fold goes through Value.Compare.

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

func refCombine(a AggKind, cur, v Value) Value {
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
