package types

import (
	"encoding/binary"
	"math"
)

// The binary row-key scheme. A row key is the normalized wire encoding of a
// row's key columns: per value a kind byte (numerics collapse to
// KindFloat), then the payload — 8-byte float64 bits for numerics, uvarint
// length + bytes for strings, nothing for NULL. Two rows produce identical
// key bytes iff their key columns are value-equal (Int(3) and Float(3.0)
// coincide, matching Value.Equal), so keys compare collision-safely as raw
// bytes while hashing to a cheap uint64.
//
// The hot paths do not encode keys: the Combiner, which holds the recursive
// state, the map-side combine, the final stage's groups, relation's dedup
// and γ, and every join build side (cluster.RowTable, exec's joins
// included), hashes values with HashRowKey and compares them with sameKey,
// which is exactly this encoding's byte equality (FuzzRowKey checks it). KeyString and RowKeyString turn the bytes into Go
// map keys and sort keys for Local, the sort-merge runs and EqualAsSet, so
// every keyed structure matches keys under this one relation. Joins add one
// rule on top of it: a row with a NULL key column (HasNullKey) joins
// nothing.

// AppendKey appends the binary key of r's values at the key indices to buf
// and returns the extended buffer.
func AppendKey(buf []byte, r Row, key []int) []byte {
	for _, i := range key {
		buf = appendKeyValue(buf, r[i])
	}
	return buf
}

// HasNullKey reports whether any of r's values at the key indices is NULL.
// Every join build side leaves such a row out, because NULL = NULL is not
// true: it matches no row, and a probe with a NULL key finds none.
func HasNullKey(r Row, key []int) bool {
	for _, i := range key {
		if r[i].K == KindNull {
			return true
		}
	}
	return false
}

// AppendRowKey appends the binary key of the entire row (set semantics).
func AppendRowKey(buf []byte, r Row) []byte {
	for _, v := range r {
		buf = appendKeyValue(buf, v)
	}
	return buf
}

func appendKeyValue(buf []byte, v Value) []byte {
	if v.IsNumeric() {
		buf = append(buf, byte(KindFloat))
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
	}
	buf = append(buf, byte(v.K))
	if v.K == KindString {
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	}
	return buf
}

// HashBytes hashes a byte slice with an FNV-1a variant that folds eight
// bytes per multiply, the companion hash of the binary key encoding. Keys
// are compared byte-wise on hash hits, so the hash only needs to spread
// well, not to match reference FNV output. The mix64 finalizer pushes
// high-byte differences (where numeric keys mostly vary) into the low bits
// that table masks consume.
func HashBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * fnvPrime
		b = b[8:]
	}
	for i := 0; i < len(b); i++ {
		h = hashByte(h, b[i])
	}
	return mix64(h)
}

// KeyString renders the values at the key indices into a compact string
// usable as a Go map key: the binary key encoding, so two rows produce the
// same key string iff their key columns are value-equal. Hot paths should
// prefer AppendKey into a reused buffer; KeyString allocates per call.
func KeyString(r Row, key []int) string {
	return string(AppendKey(make([]byte, 0, 12*len(key)), r, key))
}

// RowKeyString renders the whole row as a map key (set semantics).
func RowKeyString(r Row) string {
	return string(AppendRowKey(make([]byte, 0, 12*len(r)), r))
}
