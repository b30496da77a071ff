package types

import "math"

// FNV-1a 64-bit constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashValue folds one value into an FNV-1a style running hash.
func HashValue(h uint64, v Value) uint64 {
	h = hashByte(h, byte(normKind(v)))
	switch v.K {
	case KindNull:
		return h
	case KindString:
		for i := 0; i < len(v.S); i++ {
			h = hashByte(h, v.S[i])
		}
		return h
	default:
		// Hash numerics through their float64 image so Int(3) and
		// Float(3.0) — which compare equal — also hash equal.
		return hashUint64(h, math.Float64bits(v.AsFloat()))
	}
}

// normKind collapses numeric kinds so equal values hash equal.
func normKind(v Value) Kind {
	if v.IsNumeric() {
		return KindFloat
	}
	return v.K
}

// HashRow hashes an entire row with the given seed.
func HashRow(seed uint64, r Row) uint64 {
	h := seed
	if h == 0 {
		h = fnvOffset
	}
	for _, v := range r {
		h = HashValue(h, v)
	}
	return h
}

// HashRowKey hashes only the values at the given key indices.
func HashRowKey(r Row, key []int) uint64 {
	h := uint64(fnvOffset)
	for _, i := range key {
		h = HashValue(h, r[i])
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
