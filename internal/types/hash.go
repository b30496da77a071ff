package types

import "math"

// FNV-1a 64-bit constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashValue folds one value into an FNV-1a style running hash.
func HashValue(h uint64, v Value) uint64 {
	switch v.K {
	case KindNull:
		return hashByte(h, byte(KindNull))
	case KindString:
		h = hashByte(h, byte(KindString))
		for i := 0; i < len(v.S); i++ {
			h = hashByte(h, v.S[i])
		}
		return h
	default:
		return hashNum(h, v.AsFloat())
	}
}

// hashNum folds a numeric in through its float64 image under the kind byte
// KindFloat, so Int(3) and Float(3.0) hash equal. HashRow and HashRowKey
// call it inline for ints and floats, so partition routing and the group
// tables see HashValue's hash bit for bit (TestKeyFastPathsMatchReference).
func hashNum(h uint64, f float64) uint64 {
	return hashUint64(hashByte(h, byte(KindFloat)), math.Float64bits(f))
}

// HashRow hashes an entire row with the given seed.
func HashRow(seed uint64, r Row) uint64 {
	h := seed
	if h == 0 {
		h = fnvOffset
	}
	for i := range r {
		switch v := &r[i]; v.K {
		case KindInt:
			h = hashNum(h, float64(v.I))
		case KindFloat:
			h = hashNum(h, v.F)
		default:
			h = HashValue(h, *v)
		}
	}
	return h
}

// HashRowKey hashes only the values at the given key indices.
func HashRowKey(r Row, key []int) uint64 {
	h := uint64(fnvOffset)
	for _, i := range key {
		switch v := &r[i]; v.K {
		case KindInt:
			h = hashNum(h, float64(v.I))
		case KindFloat:
			h = hashNum(h, v.F)
		default:
			h = HashValue(h, *v)
		}
	}
	return h
}

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func hashUint64(h uint64, x uint64) uint64 {
	return mix64((h ^ x) * fnvPrime)
}

// mix64 is a splitmix64-style finalizer. A chain of FNV multiplies only
// propagates bit differences upward, so two float64 images differing in the
// exponent/high mantissa (e.g. consecutive small integers) would share
// their low hash bits — exactly the bits partition routing (mod) and
// open-addressed tables (mask) consume. Folding the high half back down
// restores avalanche at a fraction of byte-at-a-time FNV's cost.
func mix64(h uint64) uint64 {
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}
