package types

import (
	"fmt"
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

func TestPartialAggregateStringKeysFallback(t *testing.T) {
	var c Combiner
	out := c.Combine([]Row{{Str("a"), Int(1)}, {Str("a"), Int(2)}, {Str("b"), Int(5)}}, []int{0}, 1, AggSum)
	if len(out) != 2 || !out[0].Equal(Row{Str("a"), Int(3)}) || !out[1].Equal(Row{Str("b"), Int(5)}) {
		t.Errorf("string-key sum = %v", out)
	}
}

// Combine compacts the caller's slice in place — for numeric and string
// keys alike — so a reused bucket keeps its backing array.
func TestPartialAggregateOwnedCompactsInPlace(t *testing.T) {
	for _, key := range []func(int) Value{
		func(k int) Value { return Int(int64(k)) },
		func(k int) Value { return Str(string(rune('a' + k))) },
	} {
		rows := []Row{{key(0), Int(1)}, {key(1), Int(5)}, {key(0), Int(2)}, {key(2), Int(7)}, {key(1), Int(1)}}
		var c Combiner
		out := c.Combine(rows, []int{0}, 1, AggSum)
		want := []Row{{key(0), Int(3)}, {key(1), Int(6)}, {key(2), Int(7)}}
		if len(out) != len(want) || &out[0] != &rows[0] {
			t.Fatalf("%d groups, in place = %v", len(out), len(out) > 0 && &out[0] == &rows[0])
		}
		for i := range want {
			if !out[i].Equal(want[i]) {
				t.Errorf("group %d = %v, want %v", i, out[i], want[i])
			}
		}
	}
}

// referenceGroups is the grouping State.Merge keys on: a map from
// AppendKey bytes to each group's first row, values combined in order.
func referenceGroups(rows []Row, key []int, valIdx int, kind AggKind) []Row {
	ids := map[string]int{}
	var out []Row
	for _, r := range rows {
		k := string(AppendKey(nil, r, key))
		if i, ok := ids[k]; ok {
			out[i][valIdx] = kind.Combine(out[i][valIdx], r[valIdx])
			continue
		}
		ids[k] = len(out)
		out = append(out, append(Row(nil), r...))
	}
	return out
}

// TestCombinerMatchesReferenceGrouping: for every aggregate a recursive
// view may carry, one Combiner reused across all cases — folding at emit
// into an arena, and compacting owned rows in place — yields exactly the
// groups, order and values of a plain map keyed by AppendKey bytes. A
// previous call's groups must never leak into the next call's. Truncating
// the folded table to half its groups and folding every row again must
// find each kept group (which folds its rows a second time) and reopen the
// dropped ones in their first-appearance order, as the recursive state's
// Restore and replay do; in the 100K case the table grew past the cut.
func TestCombinerMatchesReferenceGrouping(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	big := make([]Row, 100_000)
	for i := range big {
		big[i] = Row{Int(int64(i)), Int(int64(i % 7))}
	}
	pair := []int{0}
	cases := []struct {
		name   string
		rows   []Row
		key    []int
		valIdx int
	}{
		{"int meets float", []Row{{Int(3), Int(1)}, {Float(3.0), Int(2)}, {Int(4), Int(5)}, {Float(4.5), Int(1)}}, pair, 1},
		{"strings and NULLs", []Row{{Str("a"), Int(1)}, {Null(), Int(2)}, {Str("a"), Int(3)}, {Null(), Int(4)}, {Str(""), Int(5)}, {Str("b"), Int(6)}}, pair, 1},
		{"signed zeros stay apart", []Row{{Float(0), Int(1)}, {negZero, Int(2)}, {Int(0), Int(3)}, {negZero, Int(4)}}, pair, 1},
		{"NaN meets NaN", []Row{{Float(math.NaN()), Int(1)}, {Int(1), Int(2)}, {Float(math.NaN()), Int(3)}}, pair, 1},
		{"four-column key", []Row{
			{Int(1), Str("x"), Null(), Float(2), Int(1)},
			{Int(1), Str("x"), Null(), Int(2), Int(5)},
			{Int(1), Str("y"), Null(), Int(2), Int(2)},
			{Float(1), Str("x"), Null(), Float(2), Int(3)},
			{Int(1), Str("x"), Int(0), Float(2), Int(7)},
		}, []int{0, 1, 2, 3}, 4},
		{"100K groups", big, pair, 1},
		{"one group after the peak", []Row{{Int(7), Int(3)}, {Int(7), Int(2)}}, pair, 1},
		{"empty", nil, pair, 1},
		{"one group again", []Row{{Int(99_999), Int(4)}, {Float(99_999), Int(1)}, {Int(99_999), Int(9)}}, pair, 1},
	}
	// diff compares rows bit for bit, as AppendRowKey encodes them.
	diff := func(got, want []Row) string {
		if len(got) != len(want) {
			return fmt.Sprintf("%d groups, want %d", len(got), len(want))
		}
		for i := range want {
			if string(AppendRowKey(nil, got[i])) != string(AppendRowKey(nil, want[i])) {
				return fmt.Sprintf("group %d is %v, want %v", i, got[i], want[i])
			}
		}
		return ""
	}
	for _, kind := range []AggKind{AggMin, AggMax, AggSum, AggCount} {
		var folder, combiner Combiner
		var arena RowSlab
		for _, tc := range cases {
			want := referenceGroups(tc.rows, tc.key, tc.valIdx, kind)
			arena.Reset()
			folder.Reset(tc.key, tc.valIdx, kind)
			var folded []Row
			for _, r := range tc.rows {
				if g, fresh := folder.Fold(r, &arena); fresh {
					folded = append(folded, g)
				}
			}
			if d := diff(folded, want); d != "" {
				t.Errorf("%v %s: folded %s", kind, tc.name, d)
			}
			half := len(want) / 2
			folder.Truncate(half)
			if d := diff(folder.Groups(), want[:half]); d != "" {
				t.Errorf("%v %s: truncated %s", kind, tc.name, d)
			}
			for _, r := range tc.rows {
				folder.Fold(r, &arena)
			}
			refolded := CloneRows(want)
			for _, g := range refolded[:half] {
				g[tc.valIdx] = kind.Combine(g[tc.valIdx], g[tc.valIdx])
			}
			if d := diff(folder.Groups(), refolded); d != "" {
				t.Errorf("%v %s: truncated and refolded %s", kind, tc.name, d)
			}
			if d := diff(combiner.Combine(CloneRows(tc.rows), tc.key, tc.valIdx, kind), want); d != "" {
				t.Errorf("%v %s: combined %s", kind, tc.name, d)
			}
		}
	}
}

// TestCombinerFoldZeroAllocs: a warm fold — over a table that already held
// its peak group count, into an arena that already carved as many rows —
// allocates nothing: the reset, the probes, the in-place combines and the
// inserts all reuse memory the first pass grew — through Combine on the
// float column and in place on the int one.
func TestCombinerFoldZeroAllocs(t *testing.T) {
	rows := make([]Row, 4096)
	for i := range rows {
		rows[i] = Row{Int(int64(i % 1000)), Str("k"), Float(float64(i)), Int(int64(i))}
	}
	key := []int{0, 1}
	var c Combiner
	var arena RowSlab
	groups := 0
	fold := func() {
		arena.Reset()
		for _, col := range []int{2, 3} {
			c.Reset(key, col, AggMin)
			groups = 0
			for _, r := range rows {
				if _, fresh := c.Fold(r, &arena); fresh {
					groups++
				}
			}
		}
	}
	fold()
	if got := testing.AllocsPerRun(50, fold); got != 0 {
		t.Errorf("a warm fold of %d rows allocates %.1f per run, want 0", len(rows), got)
	}
	if groups != 1000 {
		t.Errorf("%d groups, want 1000", groups)
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
