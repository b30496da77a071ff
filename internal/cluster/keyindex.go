package cluster

import (
	"bytes"

	"github.com/rasql/rasql-go/internal/types"
)

// keyIndex maps binary row keys (types.AppendKey encodings) to dense ids
// assigned in insertion order: the i-th distinct key inserted gets id i. It
// is the allocation-free replacement for the Go maps that SetRDD, AggRDD
// and RowTable used to keep per partition:
//
//   - key bytes live concatenated in one arena, so inserting copies into
//     the arena tail instead of allocating a string;
//   - the hash table is open-addressed, each slot packing the entry id
//     with a 32-bit hash tag so a probe touches one cache line per step
//     and only dereferences the arena on a tag hit;
//   - raw bytes are compared on hash hits (collision-safe);
//   - probes encode into a reused scratch buffer owned by the index.
//
// The scratch buffer makes a keyIndex single-goroutine: the cluster's
// one-goroutine-per-worker discipline (each partition's state is touched
// only by the task that owns it) guarantees this.
//
// Because ids are dense and insertion-ordered, an index whose entries
// parallel an append-only row slice can be checkpointed by remembering its
// length alone and restored with truncate — the Section 6.1 fault-recovery
// snapshot at O(1) cost.
type keyIndex struct {
	arena  []byte   // concatenated key bytes of all entries
	ends   []uint32 // ends[i] is the arena offset just past entry i's key
	hashes []uint64 // per-entry key hash (kept so grow/truncate never rehash bytes)
	// slots is the open-addressed table: (id+1)<<32 | uint32(hash), 0 =
	// empty; len is a power of two. The embedded tag rejects almost every
	// non-matching slot without loading the entry's hash or key bytes.
	slots   []uint64
	mask    uint64
	scratch []byte
}

const keyIndexMinSlots = 16

func newKeyIndex() *keyIndex { return &keyIndex{} }

// key returns entry i's bytes (a view into the arena).
func (x *keyIndex) key(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = x.ends[i-1]
	}
	return x.arena[start:x.ends[i]]
}

// encKey encodes r's values at the key columns into the scratch buffer and
// returns the bytes with their hash. Valid until the next enc* call.
func (x *keyIndex) encKey(r types.Row, cols []int) ([]byte, uint64) {
	b := types.AppendKey(x.scratch[:0], r, cols)
	x.scratch = b
	return b, types.HashBytes(b)
}

// encRowKey is encKey over every column (set semantics).
func (x *keyIndex) encRowKey(r types.Row) ([]byte, uint64) {
	b := types.AppendRowKey(x.scratch[:0], r)
	x.scratch = b
	return b, types.HashBytes(b)
}

// get returns the id of key, if present.
func (x *keyIndex) get(key []byte, h uint64) (int, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	for s := h & x.mask; ; s = (s + 1) & x.mask {
		slot := x.slots[s]
		if slot == 0 {
			return 0, false
		}
		if uint32(slot) == uint32(h) {
			e := int(slot>>32) - 1
			if x.hashes[e] == h && bytes.Equal(x.key(e), key) {
				return e, true
			}
		}
	}
}

// getOrInsert returns the id of key, inserting it (copying the bytes into
// the arena) if absent. inserted reports whether the key was new; new keys
// get id == len()-1. Steady-state probes and inserts touch no allocator;
// arena/ends/hashes appends amortize into the capacity the caller's reuse
// already paid for, and table doubling is the one justified exception.
func (x *keyIndex) getOrInsert(key []byte, h uint64) (id int, inserted bool) {
	// Grow at 3/4 load so probe chains stay short: the table doubles, so
	// over the index's life it grows O(log n) times.
	if 4*(len(x.ends)+1) > 3*len(x.slots) {
		x.grow()
	}
	for s := h & x.mask; ; s = (s + 1) & x.mask {
		slot := x.slots[s]
		if slot == 0 {
			e := len(x.ends)
			x.arena = append(x.arena, key...)
			x.ends = append(x.ends, uint32(len(x.arena)))
			x.hashes = append(x.hashes, h)
			x.slots[s] = uint64(e+1)<<32 | uint64(uint32(h))
			return e, true
		}
		if uint32(slot) == uint32(h) {
			e := int(slot>>32) - 1
			if x.hashes[e] == h && bytes.Equal(x.key(e), key) {
				return e, false
			}
		}
	}
}

func (x *keyIndex) grow() {
	n := 2 * len(x.slots)
	if n < keyIndexMinSlots {
		n = keyIndexMinSlots
	}
	x.rebuild(n)
}

// rebuild reslots every entry from its stored hash.
func (x *keyIndex) rebuild(nslots int) {
	x.slots = make([]uint64, nslots)
	x.mask = uint64(nslots - 1)
	for e, h := range x.hashes {
		s := h & x.mask
		for x.slots[s] != 0 {
			s = (s + 1) & x.mask
		}
		x.slots[s] = uint64(e+1)<<32 | uint64(uint32(h))
	}
}

// truncate drops every entry with id >= n — checkpoint restore for the
// append-only state the index shadows. The slot table is rebuilt from the
// surviving hashes (O(n), paid only on the failure-replay path).
func (x *keyIndex) truncate(n int) {
	if n >= len(x.ends) {
		return
	}
	end := uint32(0)
	if n > 0 {
		end = x.ends[n-1]
	}
	x.arena = x.arena[:end]
	x.ends = x.ends[:n]
	x.hashes = x.hashes[:n]
	x.rebuild(len(x.slots))
}

// reset drops every entry and keeps the arena, the entry arrays and the
// slot table at their size.
func (x *keyIndex) reset() {
	x.arena, x.ends, x.hashes = x.arena[:0], x.ends[:0], x.hashes[:0]
	clear(x.slots)
}

// clone deep-copies the index (the ImmutableState ablation's copy-on-union).
func (x *keyIndex) clone() *keyIndex {
	return &keyIndex{
		arena:  append([]byte(nil), x.arena...),
		ends:   append([]uint32(nil), x.ends...),
		hashes: append([]uint64(nil), x.hashes...),
		slots:  append([]uint64(nil), x.slots...),
		mask:   x.mask,
	}
}
