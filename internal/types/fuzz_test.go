package types

import (
	"bytes"
	"math"
	"testing"
)

// AppendKeyValues appends the binary key of a bare value list (a probe key
// assembled column by column), for the row-key fuzz target and the key
// benchmarks.
func AppendKeyValues(buf []byte, vals []Value) []byte {
	for _, v := range vals {
		buf = appendKeyValue(buf, v)
	}
	return buf
}

// Fuzzing the shuffle wire format and the binary row-key scheme — the two
// byte-level codecs everything crossing a simulated worker boundary depends
// on. CI runs each target briefly (-fuzztime smoke); checked-in corpus
// seeds under testdata/fuzz keep regressions pinned.

func fuzzSampleRows() []Row {
	return []Row{
		{Int(1), Float(2.5), Str("hello"), Bool(true)},
		{Int(-42), Null(), Str(""), Bool(false)},
		{},
		{Str("π≈3.14159"), Int(1 << 60)},
	}
}

// FuzzDecodeRowsAppend: arbitrary bytes must never panic or over-allocate,
// and anything that decodes must survive a canonical re-encode/decode
// roundtrip with values and kinds intact. Neither decoder may retain its
// input: once decoded, the rows must survive their buffer being
// overwritten, since shuffle and inbox bytes are reused the moment a decode
// returns.
func FuzzDecodeRowsAppend(f *testing.F) {
	f.Add(EncodeRows(fuzzSampleRows()))
	f.Add(EncodeRows(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // absurd batch count
	var slab RowSlab
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := bytes.Clone(data) // the fuzz input itself must not be written
		rows, err := DecodeRowsAppend(nil, buf)
		if err != nil {
			return
		}
		enc := EncodeRows(rows)
		if len(enc) != EncodedSize(rows) {
			t.Fatalf("EncodedSize %d but encoding is %d bytes", EncodedSize(rows), len(enc))
		}
		slab.Reset()
		into, err := DecodeRowsInto(nil, &slab, buf)
		if err != nil {
			t.Fatalf("DecodeRowsInto fails where DecodeRowsAppend succeeds: %v", err)
		}
		if !bytes.Equal(EncodeRows(into), enc) {
			t.Fatal("DecodeRowsInto and DecodeRowsAppend decode different rows")
		}
		for i := range buf {
			buf[i] = 0xAA
		}
		if !bytes.Equal(EncodeRows(rows), enc) {
			t.Fatal("DecodeRowsAppend retains its input: rows changed when the buffer was overwritten")
		}
		if !bytes.Equal(EncodeRows(into), enc) {
			t.Fatal("DecodeRowsInto retains its input: rows changed when the buffer was overwritten")
		}
		back, err := DecodeRows(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if len(back) != len(rows) {
			t.Fatalf("roundtrip row count %d, want %d", len(back), len(rows))
		}
		for i := range rows {
			if len(back[i]) != len(rows[i]) {
				t.Fatalf("row %d width %d, want %d", i, len(back[i]), len(rows[i]))
			}
			for j := range rows[i] {
				v, w := rows[i][j], back[i][j]
				if v.K != w.K {
					t.Fatalf("row %d col %d: kind %v roundtripped to %v", i, j, v.K, w.K)
				}
				// Floats compare by bits: NaN is value-unequal to itself but
				// must still cross the wire unchanged.
				if v.K == KindFloat {
					if math.Float64bits(v.F) != math.Float64bits(w.F) {
						t.Fatalf("row %d col %d: float bits %x roundtripped to %x",
							i, j, math.Float64bits(v.F), math.Float64bits(w.F))
					}
				} else if !w.Equal(v) {
					t.Fatalf("row %d col %d: %v roundtripped to %v", i, j, v, w)
				}
			}
		}
	})
}

// FuzzRowKey: the binary key encoding must be deterministic, collapse
// numerics exactly like Value.Equal (Int(n) and Float collide iff
// value-equal), keep distinct strings distinct (length-prefixing makes the
// encoding prefix-free), and agree with the allocating KeyString fallback.
// HashBytes must be a pure function of the bytes. The Combiner, which holds
// the recursive state, never encodes keys: its sameKey must hold exactly
// when the AppendKey bytes are equal, and imply equal HashRowKey hashes.
// Every int fast path (HashRow, HashRowKey, sameKey, AggKind.Improves and
// AggKind.Combine) must match its generic reference on every pair of the
// values the inputs make (checkFastPaths).
func FuzzRowKey(f *testing.F) {
	f.Add(int64(0), 0.0, "", "x", true)
	f.Add(int64(-1), 3.0, "abc", "abd", false)
	f.Add(int64(1<<53), -0.0, "π", "", true)
	f.Fuzz(func(t *testing.T, n int64, fv float64, s1, s2 string, b bool) {
		row := Row{Int(n), Float(fv), Str(s1), Bool(b), Null()}
		k1 := AppendRowKey(nil, row)
		k2 := AppendRowKey(nil, row)
		if !bytes.Equal(k1, k2) {
			t.Fatalf("key encoding not deterministic: %x vs %x", k1, k2)
		}
		if HashBytes(k1) != HashBytes(k2) {
			t.Fatal("HashBytes not deterministic")
		}

		// Numeric collapse mirrors Value.Equal.
		ik := AppendKeyValues(nil, []Value{Int(n)})
		fk := AppendKeyValues(nil, []Value{Float(float64(n))})
		if !bytes.Equal(ik, fk) {
			t.Fatalf("Int(%d) and Float(%g) are value-equal but key bytes differ", n, float64(n))
		}
		if Int(n).Equal(Float(fv)) != bytes.Equal(
			AppendKeyValues(nil, []Value{Int(n)}),
			AppendKeyValues(nil, []Value{Float(fv)})) {
			t.Fatalf("key-byte equality disagrees with Value.Equal for Int(%d)/Float(%g)", n, fv)
		}

		if s1 != s2 {
			a := AppendKeyValues(nil, []Value{Str(s1)})
			c := AppendKeyValues(nil, []Value{Str(s2)})
			if bytes.Equal(a, c) {
				t.Fatalf("distinct strings %q and %q collide in key bytes", s1, s2)
			}
		}

		key := []int{0, 2, 4}
		if KeyString(row, key) != string(AppendKey(nil, row, key)) {
			t.Fatal("KeyString disagrees with AppendKey")
		}

		// Every pair of values the inputs make, as one-column keys and as
		// swapped two-column ones.
		vals := [...]Value{Int(n), Float(fv), Float(float64(n)), Int(int64(fv)), Float(-fv), Str(s1), Str(s2), Bool(b), Null()}
		var ka, kc []byte
		a, c := make(Row, 2), make(Row, 2)
		keys := [][]int{{0}, {0, 1}}
		for _, x := range vals {
			for _, y := range vals {
				checkFastPaths(t, x, y)
				a[0], a[1], c[0], c[1] = x, y, y, x
				for _, k := range keys {
					ka, kc = AppendKey(ka[:0], a, k), AppendKey(kc[:0], c, k)
					same := sameKey(a, k, c, k)
					if same != bytes.Equal(ka, kc) {
						t.Fatalf("sameKey(%v, %v, %v) = %v disagrees with AppendKey byte equality", a, c, k, same)
					}
					if same && HashRowKey(a, k) != HashRowKey(c, k) {
						t.Fatalf("sameKey(%v, %v, %v) holds but HashRowKey differs", a, c, k)
					}
				}
			}
		}
	})
}
