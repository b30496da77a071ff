package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The shuffle wire format. The simulated cluster serializes rows whenever
// data crosses a worker boundary (remote fetch, shuffle to a different
// worker, broadcast), so serialization cost is paid exactly where a real
// Spark deployment pays it. Layout per row:
//
//	uvarint n            — number of values
//	per value: kind byte, then payload:
//	  int    → zig-zag varint
//	  float  → 8-byte little-endian IEEE-754
//	  string → uvarint length + bytes
//	  bool   → 1 byte
//	  null   → nothing

// AppendRow appends the wire encoding of r to buf and returns it.
func AppendRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		buf = append(buf, byte(v.K))
		switch v.K {
		case KindNull:
		case KindInt:
			buf = binary.AppendVarint(buf, v.I)
		case KindFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
		case KindString:
			buf = binary.AppendUvarint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		case KindBool:
			buf = append(buf, byte(v.I))
		}
	}
	return buf
}

// DecodeRow decodes one row from buf, returning the row and the number of
// bytes consumed.
func DecodeRow(buf []byte) (Row, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("types: truncated row header")
	}
	// Every value costs at least its kind byte, so a width the remaining
	// buffer can't possibly hold is corruption — reject it before sizing
	// the row, not after an absurd allocation.
	if n > uint64(len(buf)-sz) {
		return nil, 0, fmt.Errorf("types: row width %d exceeds buffer", n)
	}
	r := make(Row, n)
	used, err := decodeRowInto(r, buf[sz:])
	if err != nil {
		return nil, 0, err
	}
	return r, sz + used, nil
}

// uvarintLen returns the encoded size of x as a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// EncodedRowSize returns the exact wire size of one row.
func EncodedRowSize(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		n++ // kind byte
		switch v.K {
		case KindInt:
			// Zig-zag transform, then uvarint width.
			n += uvarintLen(uint64(v.I)<<1 ^ uint64(v.I>>63))
		case KindFloat:
			n += 8
		case KindString:
			n += uvarintLen(uint64(len(v.S))) + len(v.S)
		case KindBool:
			n++
		}
	}
	return n
}

// EncodedSize returns the exact wire size of the EncodeRows batch encoding,
// letting batch encoders allocate once.
func EncodedSize(rows []Row) int {
	n := uvarintLen(uint64(len(rows)))
	for _, r := range rows {
		n += EncodedRowSize(r)
	}
	return n
}

// AppendRows appends the batch encoding of rows to buf and returns it.
// Callers that reuse buffers (the shuffle's send memory) pass a recycled
// buf; one-shot callers should size it with EncodedSize.
func AppendRows(buf []byte, rows []Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, r := range rows {
		buf = AppendRow(buf, r)
	}
	return buf
}

// EncodeRows serializes a batch of rows into one exactly-sized buffer.
func EncodeRows(rows []Row) []byte {
	return AppendRows(make([]byte, 0, EncodedSize(rows)), rows)
}

// DecodeRows deserializes a batch produced by EncodeRows.
func DecodeRows(buf []byte) ([]Row, error) {
	return DecodeRowsAppend(nil, buf)
}

// DecodeRowsAppend decodes a batch produced by EncodeRows/AppendRows,
// appending the rows to dst, into storage of their own.
func DecodeRowsAppend(dst []Row, buf []byte) ([]Row, error) {
	return DecodeRowsInto(dst, nil, buf)
}

// DecodeRowsInto decodes a batch produced by EncodeRows/AppendRows,
// appending the rows to dst and carving their values out of slab, so a
// caller that resets and reuses both decodes without allocating; a nil
// slab gets storage of its own, one exactly-sized block per batch. The
// input buffer is not retained (string payloads are copied), so callers
// may recycle it immediately: FuzzDecodeRowsAppend scribbles over it after
// every decode. TestDecodeRowsZeroAllocs pins the steady state, in which
// per row only a string payload's copy touches the allocator.
func DecodeRowsInto(dst []Row, slab *RowSlab, buf []byte) ([]Row, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("types: truncated batch header")
	}
	// Every row costs at least one byte (its width header), so a count the
	// remaining buffer can't hold is corruption; rejecting it here keeps the
	// capacity hint below safe against attacker-sized allocations.
	if n > uint64(len(buf)-sz) {
		return nil, fmt.Errorf("types: batch count %d exceeds buffer", n)
	}
	pos := sz
	if dst == nil {
		dst = make([]Row, 0, n)
	}
	// Without a slab the rows are carved from one block of n × the first
	// row's width, exact for the engine's uniform-width batches and capped
	// by the bytes left: every value costs at least its kind byte, so a
	// header cannot size it. A row the block cannot hold gets its own.
	var block []Value
	if slab == nil {
		if w, wsz := binary.Uvarint(buf[sz:]); wsz > 0 {
			left := uint64(len(buf) - sz)
			block = make([]Value, min(n*min(w, left), left))
		}
	}
	for i := uint64(0); i < n; i++ {
		width, wsz := binary.Uvarint(buf[pos:])
		if wsz <= 0 {
			return nil, fmt.Errorf("types: row %d: truncated row header", i)
		}
		pos += wsz
		// Same argument per value: at least a kind byte each.
		if width > uint64(len(buf)-pos) {
			return nil, fmt.Errorf("types: row %d: width %d exceeds buffer", i, width)
		}
		var r Row
		switch {
		case slab != nil:
			r = slab.Alloc(int(width))
		case int(width) <= len(block):
			r, block = block[:width:width], block[width:]
		default:
			r = make(Row, width)
		}
		used, err := decodeRowInto(r, buf[pos:])
		if err != nil {
			return nil, fmt.Errorf("types: row %d: %w", i, err)
		}
		pos += used
		dst = append(dst, r)
	}
	return dst, nil
}

// decodeRowInto decodes len(r) values (the body of a row whose width header
// is already consumed) from buf into r, returning the bytes consumed. Like
// DecodeRowsAppend it must not retain buf: every string payload is copied —
// that copy is the one justified allocation on the non-error path.
func decodeRowInto(r Row, buf []byte) (int, error) {
	pos := 0
	for i := range r {
		if pos >= len(buf) {
			return 0, fmt.Errorf("types: truncated value kind")
		}
		k := Kind(buf[pos])
		pos++
		switch k {
		case KindNull:
			r[i] = Null()
		case KindInt:
			x, s := binary.Varint(buf[pos:])
			if s <= 0 {
				return 0, fmt.Errorf("types: truncated int")
			}
			pos += s
			r[i] = Int(x)
		case KindFloat:
			if pos+8 > len(buf) {
				return 0, fmt.Errorf("types: truncated double")
			}
			r[i] = Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:])))
			pos += 8
		case KindString:
			l, s := binary.Uvarint(buf[pos:])
			// Compare unsigned: a length near 2^64 converted to int goes
			// negative and would sail past an int-arithmetic bounds check
			// into a negative slice index.
			if s <= 0 || l > uint64(len(buf)-pos-s) {
				return 0, fmt.Errorf("types: truncated string")
			}
			pos += s
			// Copy the payload: the caller may reuse buf once the decode returns.
			r[i] = Str(string(buf[pos : pos+int(l)]))
			pos += int(l)
		case KindBool:
			if pos >= len(buf) {
				return 0, fmt.Errorf("types: truncated boolean")
			}
			r[i] = Bool(buf[pos] != 0)
			pos++
		default:
			return 0, fmt.Errorf("types: bad kind byte %d", k)
		}
	}
	return pos, nil
}
