package cluster

import (
	"encoding/binary"

	"github.com/rasql/rasql-go/internal/types"
)

// Broadcast is a relation replicated to every worker as a per-worker hash
// table keyed on join-key columns — the build side of a broadcast-hash join.
type Broadcast struct {
	Schema types.Schema
	Key    []int
	// tables[w] is worker w's private hash table.
	tables []*RowTable
	// wire is the encoded relation, retained only under chaos so a worker
	// whose cache blocks were invalidated by a simulated worker loss can
	// rebuild its table (re-fetching the broadcast, paid in BroadcastBytes).
	wire       []byte
	compressed bool
	c          *QueryContext
}

// Table returns the hash table visible to the given worker. A worker whose
// cached table was invalidated by a simulated worker loss rebuilds it from
// the retained wire — always on that worker's own goroutine, so the slot is
// data-race free.
func (b *Broadcast) Table(worker int) *RowTable {
	if t := b.tables[worker]; t != nil || b.wire == nil {
		return t
	}
	b.c.Metrics.BroadcastBytes.Add(int64(len(b.wire)))
	b.tables[worker] = buildFromWire(b.wire, b.compressed, b.Key)
	return b.tables[worker]
}

// invalidate drops one worker's cache block; no-op unless the wire was
// retained (chaos on), since without it the table could not be rebuilt.
func (b *Broadcast) invalidate(worker int) {
	if b.wire != nil {
		b.tables[worker] = nil
	}
}

// buildFromWire decodes a broadcast wire payload and builds the probe table.
func buildFromWire(wire []byte, compressed bool, key []int) *RowTable {
	if compressed {
		got, err := types.DecodeRows(wire)
		if err != nil {
			panic("cluster: broadcast wire corruption: " + err.Error())
		}
		return BuildRowTable(got, key)
	}
	return BuildRowTable(decodeHashed(wire), key)
}

// Broadcast replicates rows to every worker, keyed on key, honouring the
// cluster's CompressBroadcast setting.
//
// With compression (the paper's Section 7.2 optimization) the raw relation
// is serialized once in the compact varint wire format and every worker
// decodes it and builds its own hash table. Without compression the master
// builds the hash table first and ships the *hashed* relation — per-entry
// key strings and bucket headers make it 2-3x larger on the wire, and
// workers still pay the decode.
func (c *QueryContext) Broadcast(rows []types.Row, schema types.Schema, key []int) *Broadcast {
	b := &Broadcast{
		Schema: schema,
		Key:    append([]int(nil), key...),
		tables: make([]*RowTable, c.cfg.Workers),
	}
	var wire []byte
	if c.cfg.CompressBroadcast {
		wire = types.EncodeRows(rows)
	} else {
		wire = encodeHashed(BuildRowTable(rows, key))
	}
	c.Metrics.BroadcastBytes.Add(int64(len(wire)) * int64(c.cfg.Workers))
	if c.chaos != nil {
		// Keep the wire around so a worker-loss fault can invalidate and
		// lazily rebuild per-worker tables, and register for invalidation.
		b.wire, b.compressed, b.c = wire, c.cfg.CompressBroadcast, c
		c.chaos.broadcasts = append(c.chaos.broadcasts, b)
	}

	tasks := make([]Task, c.cfg.Workers)
	for w := range tasks {
		worker := w
		tasks[w] = Task{Part: worker, Preferred: worker, Run: func(onW int) {
			// Idempotent by construction: a replayed attempt just rebuilds
			// the same private table, so no Rollback is needed.
			b.tables[worker] = buildFromWire(wire, c.cfg.CompressBroadcast, key)
		}}
	}
	c.RunStage("broadcast", tasks)
	return b
}

// encodeHashed serializes a built hash table bucket by bucket: a 16-byte
// bucket header, the key's AppendKey bytes, then the bucket's rows. This
// mirrors how shipping a pre-built hashed relation inflates the payload
// versus the raw rows.
func encodeHashed(t *RowTable) []byte {
	nkeys := t.buckets()
	buf := make([]byte, 0, 64*nkeys)
	buf = binary.AppendUvarint(buf, uint64(nkeys))
	var header [16]byte
	var key []byte
	for e := 0; e < nkeys; e++ {
		bucket := t.bucket(e)
		key = types.AppendKey(key[:0], bucket[0], t.cols)
		buf = append(buf, header[:]...) // bucket metadata (hash, pointers)
		buf = binary.AppendUvarint(buf, uint64(len(key)))
		buf = append(buf, key...)
		buf = types.AppendRows(buf, bucket)
	}
	return buf
}

// decodeHashed returns the rows of an encodeHashed table in bucket order.
func decodeHashed(buf []byte) []types.Row {
	n, pos := binary.Uvarint(buf)
	var rows []types.Row
	for i := uint64(0); i < n; i++ {
		pos += 16 // skip bucket header
		l, sz := binary.Uvarint(buf[pos:])
		pos += sz + int(l) // skip the key
		m, sz := binary.Uvarint(buf[pos:])
		pos += sz
		for j := uint64(0); j < m; j++ {
			r, used, err := types.DecodeRow(buf[pos:])
			if err != nil {
				panic("cluster: hashed broadcast corruption: " + err.Error())
			}
			pos += used
			rows = append(rows, r)
		}
	}
	return rows
}
