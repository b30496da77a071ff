package types

import "testing"

// fillRows allocates n rows of the given width and stamps every column with
// a value unique to the row, so any overlap shows up as a wrong stamp.
func fillRows(s *RowSlab, n, width, base int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = s.Alloc(width)
		for c := range rows[i] {
			rows[i][c] = Int(int64(base + i))
		}
	}
	return rows
}

func checkRows(t *testing.T, rows []Row, width, base int) {
	t.Helper()
	for i, r := range rows {
		if len(r) != width || cap(r) != width {
			t.Fatalf("row %d: len %d cap %d, want %d/%d", i, len(r), cap(r), width, width)
		}
		for c := range r {
			if r[c].I != int64(base+i) {
				t.Fatalf("row %d col %d = %d, want %d (rows overlap)", i, c, r[c].I, base+i)
			}
		}
	}
}

func TestRowSlabRowsNeverOverlap(t *testing.T) {
	for _, width := range []int{1, 3} {
		var s RowSlab
		// Enough rows to cross several chunk boundaries, including widths
		// that do not divide the chunk size.
		n := 3*slabMaxChunk/width + 17
		rows := fillRows(&s, n, width, 0)
		checkRows(t, rows, width, 0)
		if len(s.chunks) < 3 {
			t.Fatalf("width %d: %d chunks, want growth across boundaries", width, len(s.chunks))
		}
		for i := 1; i < len(s.chunks); i++ {
			if prev, cur := len(s.chunks[i-1]), len(s.chunks[i]); cur < prev || cur > slabMaxChunk {
				t.Errorf("width %d: chunk %d has %d values after %d (cap %d)", width, i, cur, prev, slabMaxChunk)
			}
		}
		if got := len(s.chunks[0]); got != slabMinChunk {
			t.Errorf("width %d: first chunk %d values, want %d", width, got, slabMinChunk)
		}
	}
}

func TestRowSlabResetReusesChunks(t *testing.T) {
	for _, width := range []int{1, 3} {
		var s RowSlab
		n := slabMaxChunk/width + 5
		fillRows(&s, n, width, 0)
		chunks := len(s.chunks)
		first := &s.chunks[0][0]
		for round := 1; round <= 3; round++ {
			s.Reset()
			rows := fillRows(&s, n, width, round*n)
			checkRows(t, rows, width, round*n)
			if len(s.chunks) != chunks {
				t.Fatalf("width %d round %d: %d chunks, want the original %d reused", width, round, len(s.chunks), chunks)
			}
			if &rows[0][0] != first {
				t.Fatalf("width %d round %d: first row not carved from the first chunk", width, round)
			}
		}
	}
}

func TestRowSlabOversizedAndMixedWidths(t *testing.T) {
	var s RowSlab
	small := s.Clone(Row{Int(1), Int(2)})
	big := s.Alloc(slabMaxChunk + 1)
	for i := range big {
		big[i] = Int(7)
	}
	after := s.Clone(Row{Int(3)})
	if !small.Equal(Row{Int(1), Int(2)}) || !after.Equal(Row{Int(3)}) || len(big) != slabMaxChunk+1 {
		t.Errorf("small=%v after=%v len(big)=%d", small, after, len(big))
	}
	if empty := s.Alloc(0); len(empty) != 0 {
		t.Errorf("Alloc(0) = %v", empty)
	}
}

func TestCloneRowsOwnsItsStorage(t *testing.T) {
	src := []Row{{Int(1), Str("a")}, {}, {Int(2)}}
	cp := CloneRows(src)
	src[0][0], src[2][0] = Int(9), Int(9)
	want := []Row{{Int(1), Str("a")}, {}, {Int(2)}}
	for i := range want {
		if !cp[i].Equal(want[i]) || cap(cp[i]) != len(want[i]) {
			t.Errorf("row %d = %v (cap %d), want %v", i, cp[i], cap(cp[i]), want[i])
		}
	}
	if got := CloneRows(nil); len(got) != 0 {
		t.Errorf("CloneRows(nil) = %v", got)
	}
}

// TestRowSlabZeroAllocs pins the slab's allocation contract: once a slab
// holds its chunks, a reset-and-refill step — the projector's steady
// state — allocates nothing.
func TestRowSlabZeroAllocs(t *testing.T) {
	var s RowSlab
	src := Row{Int(1), Int(2)}
	step := func() {
		s.Reset()
		for i := 0; i < 3*slabMaxChunk/2; i++ {
			s.Alloc(2)[0] = Int(int64(i))
			s.Clone(src)
		}
	}
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("steady-state step allocates %v times, want 0", n)
	}
}
