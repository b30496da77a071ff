package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		k    Kind
		null bool
	}{
		{Int(7), KindInt, false},
		{Float(2.5), KindFloat, false},
		{Str("x"), KindString, false},
		{Bool(true), KindBool, false},
		{Bool(false), KindBool, false},
		{Null(), KindNull, true},
		{Value{}, KindNull, true},
	}
	for _, c := range cases {
		if c.v.K != c.k {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.K, c.k)
		}
		if c.v.IsNull() != c.null {
			t.Errorf("%v: IsNull = %v, want %v", c.v, c.v.IsNull(), c.null)
		}
	}
}

func TestValueEqualNumericCoercion(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if !Bool(true).Equal(Int(1)) {
		t.Error("Bool(true) should equal Int(1) numerically")
	}
	if Str("3").Equal(Int(3)) {
		t.Error("Str should not equal Int")
	}
	if !Null().Equal(Null()) {
		t.Error("NULL should equal NULL for set semantics")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueArithmetic(t *testing.T) {
	if got := Int(2).Add(Int(3)); !got.Equal(Int(5)) {
		t.Errorf("2+3 = %v", got)
	}
	if got := Int(2).Add(Float(0.5)); !got.Equal(Float(2.5)) {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := Int(7).Sub(Int(3)); !got.Equal(Int(4)) {
		t.Errorf("7-3 = %v", got)
	}
	if got := Int(6).Mul(Float(0.5)); !got.Equal(Float(3)) {
		t.Errorf("6*0.5 = %v", got)
	}
	if got := Int(6).Div(Int(2)); !got.Equal(Int(3)) {
		t.Errorf("6/2 = %v", got)
	}
	if got := Int(7).Div(Int(2)); !got.Equal(Float(3.5)) {
		t.Errorf("7/2 = %v", got)
	}
	if got := Int(7).Div(Int(0)); !got.IsNull() {
		t.Errorf("7/0 = %v, want NULL", got)
	}
	if got := Int(7).Mod(Int(3)); !got.Equal(Int(1)) {
		t.Errorf("7%%3 = %v", got)
	}
	if got := Str("a").Add(Str("b")); !got.Equal(Str("ab")) {
		t.Errorf("'a'+'b' = %v", got)
	}
	if got := Null().Add(Int(1)); !got.IsNull() {
		t.Errorf("NULL+1 = %v, want NULL", got)
	}
}

func TestValueTruthy(t *testing.T) {
	for _, v := range []Value{Bool(true), Int(1), Float(0.1)} {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range []Value{Bool(false), Int(0), Float(0), Null(), Str("x")} {
		if v.Truthy() {
			t.Errorf("%v should not be truthy", v)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Float(1.5), "1.5"},
		{Float(3), "3.0"},
		{Str("hi"), "hi"},
		{Bool(true), "true"},
		{Null(), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("42", KindInt)
	if err != nil || !v.Equal(Int(42)) {
		t.Errorf("ParseValue int: %v, %v", v, err)
	}
	v, err = ParseValue("2.5", KindFloat)
	if err != nil || !v.Equal(Float(2.5)) {
		t.Errorf("ParseValue float: %v, %v", v, err)
	}
	v, err = ParseValue("hello", KindString)
	if err != nil || !v.Equal(Str("hello")) {
		t.Errorf("ParseValue string: %v, %v", v, err)
	}
	v, err = ParseValue("true", KindBool)
	if err != nil || !v.Equal(Bool(true)) {
		t.Errorf("ParseValue bool: %v, %v", v, err)
	}
	if _, err = ParseValue("zzz", KindInt); err == nil {
		t.Error("ParseValue should fail on bad int")
	}
	if _, err = ParseValue("x", KindNull); err == nil {
		t.Error("ParseValue should fail on null kind")
	}
}

func TestHashEqualValuesHashEqual(t *testing.T) {
	// Equal values must hash equal even across numeric kinds.
	pairs := [][2]Value{
		{Int(3), Float(3.0)},
		{Bool(true), Int(1)},
		{Str("abc"), Str("abc")},
		{Null(), Null()},
	}
	for _, p := range pairs {
		h1 := HashValue(fnvOffset, p[0])
		h2 := HashValue(fnvOffset, p[1])
		if h1 != h2 {
			t.Errorf("equal values %v and %v hash to %d and %d", p[0], p[1], h1, h2)
		}
	}
}

func TestHashPropertyEqualImpliesEqualHash(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Float(float64(b))
		if va.Equal(vb) {
			return HashValue(1, va) == HashValue(1, vb)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashRowKeySubset(t *testing.T) {
	r1 := Row{Int(1), Str("x"), Float(2.5)}
	r2 := Row{Int(9), Str("x"), Float(2.5)}
	if HashRowKey(r1, []int{1, 2}) != HashRowKey(r2, []int{1, 2}) {
		t.Error("rows with equal key columns must hash equal on those columns")
	}
	if HashRowKey(r1, []int{0}) == HashRowKey(r2, []int{0}) {
		t.Error("different key values should (almost surely) hash differently")
	}
}

func TestFloatSpecialValues(t *testing.T) {
	inf := Float(math.Inf(1))
	if inf.Compare(Float(1e300)) != 1 {
		t.Error("+inf should compare greater")
	}
	if got := Float(math.NaN()); got.Equal(got) {
		// NaN != NaN under IEEE; document the engine-level behavior.
		t.Error("NaN should not equal itself (IEEE semantics)")
	}
}

func TestNumKeyAndPackRow(t *testing.T) {
	if k1, ok := NumKey(Int(3)); !ok {
		t.Error("ints have numeric keys")
	} else if k2, _ := NumKey(Float(3.0)); k1 != k2 {
		t.Error("Int(3) and Float(3.0) must share a key")
	}
	if _, ok := NumKey(Str("x")); ok {
		t.Error("strings have no numeric key")
	}
	if _, ok := NumKey(Null()); ok {
		t.Error("NULL has no numeric key")
	}
	r := Row{Int(1), Float(2), Bool(true)}
	if _, ok := PackRow(r, []int{0, 1, 2}); !ok {
		t.Error("all-numeric row should pack")
	}
	if _, ok := PackRow(Row{Str("s")}, []int{0}); ok {
		t.Error("string row must not pack")
	}
	if _, ok := PackRow(Row{Int(1), Int(2), Int(3), Int(4)}, []int{0, 1, 2, 3}); ok {
		t.Error("more than 3 key columns must not pack")
	}
	// Distinct rows pack to distinct keys; equal rows to equal keys.
	a, _ := PackRow(Row{Int(1), Int(2)}, []int{0, 1})
	b, _ := PackRow(Row{Int(1), Float(2)}, []int{0, 1})
	c, _ := PackRow(Row{Int(2), Int(1)}, []int{0, 1})
	if a != b {
		t.Error("value-equal rows must pack equal")
	}
	if a == c {
		t.Error("different rows must pack differently")
	}
}

func TestAllNumeric(t *testing.T) {
	if !AllNumeric(NewSchema(Col("A", KindInt), Col("B", KindFloat), Col("C", KindBool))) {
		t.Error("numeric schema misclassified")
	}
	if AllNumeric(NewSchema(Col("A", KindInt), Col("S", KindString))) {
		t.Error("string column is not numeric")
	}
}

func TestPartialAggregateStringKeysFallback(t *testing.T) {
	rows := []Row{
		{Str("a"), Int(1)}, {Str("a"), Int(2)}, {Str("b"), Int(5)},
	}
	out := PartialAggregate(rows, []int{0}, 1, AggSum)
	if len(out) != 2 {
		t.Fatalf("groups = %d", len(out))
	}
	for _, r := range out {
		if r[0].S == "a" && !r[1].Equal(Int(3)) {
			t.Errorf("sum(a) = %v", r[1])
		}
	}
	// Inputs must be untouched in the unowned variant even on fallback.
	if !rows[0][1].Equal(Int(1)) {
		t.Error("input mutated")
	}
	// Owned variant may reuse rows.
	out = PartialAggregateOwned([]Row{{Str("a"), Int(1)}, {Str("a"), Int(2)}}, []int{0}, 1, AggSum)
	if len(out) != 1 || !out[0][1].Equal(Int(3)) {
		t.Errorf("owned sum = %v", out)
	}
}

// The owned variant compacts the caller's slice in place — on the packed
// path and on the string-key fallback — so a reused bucket keeps its backing
// array; the unowned variant must leave the caller's slice alone.
func TestPartialAggregateOwnedCompactsInPlace(t *testing.T) {
	for _, key := range []func(int) Value{
		func(k int) Value { return Int(int64(k)) },
		func(k int) Value { return Str(string(rune('a' + k))) },
	} {
		mk := func() []Row {
			return []Row{{key(0), Int(1)}, {key(1), Int(5)}, {key(0), Int(2)}, {key(2), Int(7)}, {key(1), Int(1)}}
		}
		rows := mk()
		out := PartialAggregateOwned(rows, []int{0}, 1, AggSum)
		want := []Row{{key(0), Int(3)}, {key(1), Int(6)}, {key(2), Int(7)}}
		if len(out) != len(want) || &out[0] != &rows[0] {
			t.Fatalf("owned: %d groups, in place = %v", len(out), len(out) > 0 && &out[0] == &rows[0])
		}
		for i := range want {
			if !out[i].Equal(want[i]) {
				t.Errorf("owned group %d = %v, want %v", i, out[i], want[i])
			}
		}
		rows = mk()
		if out = PartialAggregate(rows, []int{0}, 1, AggSum); &out[0] == &rows[0] || !rows[2].Equal(Row{key(0), Int(2)}) {
			t.Errorf("unowned variant wrote into its input: %v", rows)
		}
	}
}

func TestAggKindHelpers(t *testing.T) {
	if AggAvg.MonotonicInRecursion() || !AggMin.MonotonicInRecursion() {
		t.Error("monotonicity classification wrong")
	}
	if !AggSum.Additive() || AggMax.Additive() {
		t.Error("additivity classification wrong")
	}
	if !AggMin.Improves(Int(1), Int(2)) || AggMin.Improves(Int(2), Int(2)) {
		t.Error("min improvement wrong")
	}
	if !AggMax.Improves(Int(3), Int(2)) || AggMax.Improves(Int(2), Int(2)) {
		t.Error("max improvement wrong")
	}
	if !AggSum.Improves(Int(1), Int(0)) || AggSum.Improves(Int(0), Int(5)) {
		t.Error("sum improvement = nonzero increment")
	}
	if got := AggMin.Combine(Int(2), Int(5)); !got.Equal(Int(2)) {
		t.Errorf("min combine = %v", got)
	}
	if got := AggMax.Combine(Int(2), Int(5)); !got.Equal(Int(5)) {
		t.Errorf("max combine = %v", got)
	}
	if got := AggSum.Combine(Int(2), Int(5)); !got.Equal(Int(7)) {
		t.Errorf("sum combine = %v", got)
	}
	if k, ok := ParseAgg("MAX"); !ok || k != AggMax {
		t.Error("ParseAgg case-insensitive")
	}
	if _, ok := ParseAgg("median"); ok {
		t.Error("unknown aggregate accepted")
	}
	for _, k := range []AggKind{AggMin, AggMax, AggSum, AggCount, AggAvg, AggNone} {
		if k.String() == "" {
			t.Error("empty aggregate name")
		}
	}
}

func TestValueModAndStringConcat(t *testing.T) {
	if got := Int(9).Mod(Int(0)); !got.IsNull() {
		t.Errorf("mod by zero = %v", got)
	}
	if got := Float(7.5).Mod(Int(2)); !got.Equal(Int(1)) {
		t.Errorf("float mod truncates: %v", got)
	}
}
