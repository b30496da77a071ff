package types

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleRows() []Row {
	return []Row{
		{Int(1), Int(-5), Float(2.5), Str("hello"), Bool(true), Null()},
		{},
		{Str(""), Int(0)},
		{Float(math.Inf(-1)), Float(math.MaxFloat64)},
		{Int(math.MaxInt64), Int(math.MinInt64)},
	}
}

func TestRowEncodeDecodeRoundTrip(t *testing.T) {
	for _, r := range sampleRows() {
		buf := AppendRow(nil, r)
		got, n, err := DecodeRow(buf)
		if err != nil {
			t.Fatalf("DecodeRow(%v): %v", r, err)
		}
		if n != len(buf) {
			t.Errorf("DecodeRow consumed %d of %d bytes", n, len(buf))
		}
		if !got.Equal(r) {
			t.Errorf("round trip: got %v, want %v", got, r)
		}
	}
}

// The one-shot decode sizes its value block by the first row's width, so
// the batch runs both ways: widest row first, and narrowest first, whose
// wider rows outgrow the block.
func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	widest := sampleRows()
	narrowest := append([]Row{{Int(7)}}, sampleRows()...)
	for _, rows := range [][]Row{widest, narrowest} {
		buf := EncodeRows(rows)
		got, err := DecodeRows(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("got %d rows, want %d", len(got), len(rows))
		}
		for i := range rows {
			if !got[i].Equal(rows[i]) || cap(got[i]) != len(rows[i]) {
				t.Errorf("row %d: got %v (cap %d), want %v", i, got[i], cap(got[i]), rows[i])
			}
		}
	}
}

func TestDecodeRowTruncated(t *testing.T) {
	full := AppendRow(nil, Row{Int(12345), Str("abcdef"), Float(1.5)})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeRow(full[:cut]); err == nil && cut < len(full) {
			// Some prefixes may decode a shorter valid row only if the
			// header says so; with a fixed header of 3 values any cut
			// must error.
			t.Errorf("DecodeRow of %d/%d bytes should fail", cut, len(full))
		}
	}
}

func TestDecodeRowsBadInput(t *testing.T) {
	if _, err := DecodeRows(nil); err == nil {
		t.Error("DecodeRows(nil) should fail")
	}
	if _, _, err := DecodeRow([]byte{1, 99}); err == nil {
		t.Error("DecodeRow with bad kind byte should fail")
	}
}

// Property: encode/decode round-trips arbitrary rows.
func TestQuickRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randomRow := func() Row {
		n := rng.Intn(6)
		r := make(Row, n)
		for i := range r {
			switch rng.Intn(5) {
			case 0:
				r[i] = Int(rng.Int63() - rng.Int63())
			case 1:
				r[i] = Float(rng.NormFloat64() * 1e6)
			case 2:
				b := make([]byte, rng.Intn(20))
				rng.Read(b)
				r[i] = Str(string(b))
			case 3:
				r[i] = Bool(rng.Intn(2) == 0)
			default:
				r[i] = Null()
			}
		}
		return r
	}
	for i := 0; i < 500; i++ {
		r := randomRow()
		got, n, err := DecodeRow(AppendRow(nil, r))
		if err != nil {
			t.Fatalf("round trip %v: %v", r, err)
		}
		if n != len(AppendRow(nil, r)) || !got.Equal(r) {
			t.Fatalf("round trip mismatch: got %v want %v", got, r)
		}
	}
}

// Property: KeyString equality coincides with key-column equality.
func TestQuickKeyStringAgreesWithEquality(t *testing.T) {
	f := func(a1, b1 int64, s1 string, a2, b2 int64, s2 string) bool {
		r1 := Row{Int(a1), Int(b1), Str(s1)}
		r2 := Row{Int(a2), Int(b2), Str(s2)}
		key := []int{0, 2}
		same := r1[0].Equal(r2[0]) && r1[2].Equal(r2[2])
		return (KeyString(r1, key) == KeyString(r2, key)) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyStringNumericNormalization(t *testing.T) {
	r1 := Row{Int(3)}
	r2 := Row{Float(3.0)}
	if KeyString(r1, []int{0}) != KeyString(r2, []int{0}) {
		t.Error("Int(3) and Float(3.0) must produce the same key string")
	}
	if RowKeyString(r1) != RowKeyString(r2) {
		t.Error("RowKeyString must normalize numerics too")
	}
}
