package types

import "testing"

func benchRows(n int) []Row {
	rows := make([]Row, n)
	names := []string{"alice", "bob", "carol", "dave"}
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(i % 97)), Float(float64(i) * 0.5), Str(names[i%len(names)])}
	}
	return rows
}

func BenchmarkEncodeRows(b *testing.B) {
	rows := benchRows(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := EncodeRows(rows)
		if len(buf) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

func BenchmarkAppendRowsReused(b *testing.B) {
	rows := benchRows(1024)
	buf := make([]byte, 0, EncodedSize(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendRows(buf[:0], rows)
	}
}

func BenchmarkDecodeRows(b *testing.B) {
	rows := benchRows(1024)
	buf := EncodeRows(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeRows(buf)
		if err != nil || len(got) != len(rows) {
			b.Fatalf("decode: %v (%d rows)", err, len(got))
		}
	}
}

// BenchmarkCombinerLongTail: one 100K-group step, then a long tail of
// 1-group steps — the shape of a recursion whose frontier collapses. The
// reused Combiner's reset zeroes only the slots the last call used, so its
// tail calls must stay within 2× of a fresh Combiner's, not pay peak-sized
// clears.
func BenchmarkCombinerLongTail(b *testing.B) {
	big := make([]Row, 100_000)
	for i := range big {
		big[i] = Row{Int(int64(i)), Int(1)}
	}
	tail := []Row{{Int(7), Int(3)}, {Int(7), Int(2)}}
	step := func(c *Combiner) {
		rows := append(tail[:0:0], tail...)
		if out := c.Combine(rows, []int{0}, 1, AggMin); len(out) != 1 {
			b.Fatalf("%d groups, want 1", len(out))
		}
	}
	b.Run("reused", func(b *testing.B) {
		var c Combiner
		c.Combine(big, []int{0}, 1, AggMin)
		step(&c) // the one reset that forgets the big step's keys
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(&c)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var c Combiner
			step(&c)
		}
	})
}

func BenchmarkRowKeyBinary(b *testing.B) {
	rows := benchRows(1024)
	var buf []byte
	key := []int{0, 1, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			buf = AppendRowKey(buf[:0], r)
			if HashBytes(buf) == 0 {
				b.Fatal("degenerate hash")
			}
			buf = AppendKey(buf[:0], r, key)
			if len(buf) == 0 {
				b.Fatal("empty key")
			}
		}
	}
}

// BenchmarkHashRowKey: the key hash alone, over the key shapes the
// recursive views group on — an int pair (the int fast path throughout), an
// int with a string (one fast and one generic column) and a float.
func BenchmarkHashRowKey(b *testing.B) {
	rows := benchRows(1024)
	for _, bc := range []struct {
		name string
		key  []int
	}{
		{"int-pair", []int{0, 1}},
		{"int-string", []int{1, 3}},
		{"float", []int{2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sink uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range rows {
					sink ^= HashRowKey(r, bc.key)
				}
			}
			if sink == 1 {
				b.Log("keep the hashes observable")
			}
		})
	}
}

// TestAppendRowsZeroAllocs pins the encode side of the wire format's
// allocation contract: re-encoding a batch into a warm buffer touches no
// allocator.
func TestAppendRowsZeroAllocs(t *testing.T) {
	rows := benchRows(64)
	buf := make([]byte, 0, EncodedSize(rows))
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendRows(buf[:0], rows)
	})
	if allocs != 0 {
		t.Errorf("AppendRows into a warm buffer allocates %.1f per batch, want 0", allocs)
	}
}

// TestDecodeRowsZeroAllocs pins the decode side. DecodeRowsInto with a
// reused dst and slab allocates nothing for numeric rows; each string
// value costs exactly its payload copy, the one justified allocation of
// decodeRowInto. DecodeRowsAppend decodes into storage of its own, so
// every call takes the nil-slab path: its steady state is one allocation,
// the exactly-sized block the batch's uniform-width rows are carved from.
func TestDecodeRowsZeroAllocs(t *testing.T) {
	numeric := make([]Row, 64)
	for i := range numeric {
		numeric[i] = Row{Int(int64(i)), Int(int64(i % 97)), Float(float64(i) * 0.5)}
	}
	withStrings := benchRows(64)
	out := make([]Row, 0, 64)
	var slab RowSlab
	decodeInto := func(buf []byte, want int) float64 {
		return testing.AllocsPerRun(100, func() {
			slab.Reset()
			var err error
			if out, err = DecodeRowsInto(out[:0], &slab, buf); err != nil || len(out) != want {
				t.Fatalf("decode: %v (%d rows)", err, len(out))
			}
		})
	}
	if allocs := decodeInto(EncodeRows(numeric), len(numeric)); allocs != 0 {
		t.Errorf("DecodeRowsInto of numeric rows allocates %.1f per batch, want 0", allocs)
	}
	if allocs := decodeInto(EncodeRows(withStrings), len(withStrings)); allocs != float64(len(withStrings)) {
		t.Errorf("DecodeRowsInto of %d one-string rows allocates %.1f per batch, want one string copy per row", len(withStrings), allocs)
	}
	buf := EncodeRows(numeric)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if out, err = DecodeRowsAppend(out[:0], buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("DecodeRowsAppend into a warm dst allocates %.1f per batch, want 1 (the exactly-sized block its rows are carved from)", allocs)
	}
}

// TestRowKeyZeroAllocs pins the binary row-key encoders: with a warm
// scratch buffer, keying a row by all columns, by a column subset or by
// loose values touches no allocator.
func TestRowKeyZeroAllocs(t *testing.T) {
	rows := benchRows(64)
	key := []int{0, 1, 3}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range rows {
			buf = AppendRowKey(buf[:0], r)
			if HashBytes(buf) == 0 {
				t.Fatal("degenerate hash")
			}
			buf = AppendKey(buf[:0], r, key)
			buf = AppendKeyValues(buf[:0], r[1:3])
			if len(buf) == 0 {
				t.Fatal("empty key")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("row-key encoding allocates %.1f per run, want 0", allocs)
	}
}

// TestKeyAndHashZeroAllocs pins the allocation contract of the key and
// hash paths: with a warm scratch buffer, encoding and hashing a row
// touches the allocator zero times per row.
func TestKeyAndHashZeroAllocs(t *testing.T) {
	rows := benchRows(64)
	key := []int{0, 1, 3}
	ints := make([]Row, len(rows))
	for i, r := range rows {
		ints[i] = r[:2]
	}
	intKey := []int{1}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range rows {
			buf = AppendKey(buf[:0], r, key)
			if HashBytes(buf) == 0 {
				t.Fatal("degenerate hash")
			}
			h := HashRow(0, r)
			h = HashValue(h, r[0])
			if HashRowKey(r, key) == h {
				// The two digests differing is overwhelmingly likely; the
				// comparison just keeps both calls observable.
				t.Log("hash collision between row and key digests")
			}
		}
		// Int-only rows take the inline int path of both hashes.
		for _, r := range ints {
			if HashRow(0, r) == HashRowKey(r, intKey) {
				t.Log("hash collision between row and key digests")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("key/hash path allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkRowKeyString(b *testing.B) {
	rows := benchRows(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			if len(RowKeyString(r)) == 0 {
				b.Fatal("empty key")
			}
		}
	}
}
