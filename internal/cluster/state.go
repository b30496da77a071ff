package cluster

import (
	"github.com/rasql/rasql-go/internal/types"
)

// SetRDD is the paper's Section 6.1 data structure for the *all* relation of
// a set-semantics recursive view: each partition keeps an append-only hash
// set cached on its owner worker, so the per-iteration union/set-difference
// only pays for genuinely new tuples instead of copying the whole RDD.
//
// Each partition's set is a keyIndex over binary row keys: dedup probes
// encode into the index's scratch buffer and compare raw bytes, so the
// steady-state hot path (duplicate rows arriving after the first iteration)
// does zero heap allocation. The index's dense ids parallel the partition's
// row slice — entry i is rows[part][i] — which is what makes checkpoints
// O(1) below.
//
// The state owns its rows: Merge copies each accepted row into the
// partition's append-only slab, so incoming batches stay caller-owned (the
// caller may reuse their storage as soon as Merge returns) and one surviving
// row never pins the buffer it arrived in.
//
// Like the paper's cached SetRDD, the state outlives one fixpoint: Reset
// empties it for the next execution and keeps every backing array — rows,
// slab chunks and key index — so a reused state re-fills the memory the
// previous execution sized instead of growing it again.
//
// When the cluster is configured with ImmutableState the merge instead
// copies the full partition contents every iteration — vanilla immutable
// RDD behaviour, kept for the ablation benchmark.
type SetRDD struct {
	Schema types.Schema
	Owner  []int

	c    *Cluster
	idx  []*keyIndex
	rows [][]types.Row
	slab []types.RowSlab // slab[part] backs rows[part]
}

// NewSetRDD creates an empty SetRDD with the cluster's default partitions.
func (c *Cluster) NewSetRDD(schema types.Schema) *SetRDD {
	return c.NewSetRDDN(schema, c.cfg.Partitions)
}

// NewSetRDDN is NewSetRDD with an explicit partition count.
func (c *Cluster) NewSetRDDN(schema types.Schema, parts int) *SetRDD {
	s := &SetRDD{
		Schema: schema,
		Owner:  make([]int, parts),
		c:      c,
		idx:    make([]*keyIndex, parts),
		rows:   make([][]types.Row, parts),
		slab:   make([]types.RowSlab, parts),
	}
	for i := range s.Owner {
		s.Owner[i] = c.DefaultOwner(i)
		s.idx[i] = newKeyIndex()
	}
	return s
}

// add inserts the row's key if absent, reporting whether it was new.
func (s *SetRDD) add(part int, r types.Row) bool {
	x := s.idx[part]
	b, h := x.encRowKey(r)
	_, inserted := x.getOrInsert(b, h)
	return inserted
}

// Merge set-differences incoming against partition part and unions the
// survivors in, returning the genuinely new rows (the next delta). It must
// be called from the task that owns the partition.
//
// Ownership is AggRDD.Merge's: incoming rows stay caller-owned, and the
// returned delta is the tail of the stored partition — read-only, and to be
// consumed before the next merge of the same partition.
func (s *SetRDD) Merge(part int, incoming []types.Row) []types.Row {
	if s.c.cfg.ImmutableState {
		// Simulate an immutable union: rebuild the partition's index and
		// row storage from scratch, copying all previous data.
		s.idx[part] = s.idx[part].clone()
		newRows := make([]types.Row, len(s.rows[part]), len(s.rows[part])+len(incoming))
		copy(newRows, s.rows[part])
		s.rows[part] = newRows
	}

	rows := s.rows[part]
	before := len(rows)
	for _, r := range incoming {
		if s.add(part, r) {
			rows = append(rows, s.slab[part].Clone(r))
		}
	}
	s.rows[part] = rows
	return rows[before:len(rows):len(rows)]
}

// Rows returns the accumulated rows of a partition (no copy: the rows live
// in the state's slab and callers must not mutate them).
func (s *SetRDD) Rows(part int) []types.Row { return s.rows[part] }

// Reset empties every partition and keeps its memory. Rows read from the
// state before the call are overwritten by later merges.
func (s *SetRDD) Reset() {
	for p := range s.rows {
		s.rows[p] = s.rows[p][:0]
		s.slab[p].Reset()
		s.idx[p].reset()
	}
}

// AggRDD is the *all* relation of a recursive view with an aggregate in its
// head: each partition maps a group key to the row holding the group's
// current aggregate value. Merging incoming contributions yields the delta —
// groups that are new or whose value improved (min/max) or changed
// (sum/count) this iteration, which is exactly the paper's Algorithm 5
// Reduce stage.
//
// Group lookup rides the same binary-key keyIndex as SetRDD: the index maps
// a group's key bytes to its dense entry id, and entry i is rows[part][i].
type AggRDD struct {
	Schema types.Schema
	// Key holds the group-by column indices (all head columns except the
	// aggregate, per RaSQL's implicit group-by rule).
	Key []int
	// ValIdx is the aggregate value column index.
	ValIdx int
	// Kind is the aggregate.
	Kind  types.AggKind
	Owner []int

	c    *Cluster
	idx  []*keyIndex
	rows [][]types.Row   // entry rows, value column holds the running total/extremum
	slab []types.RowSlab // slab[part] backs rows[part]
}

// AggDelta is the delta produced by one AggRDD merge: the updated rows
// (value column = new total / new extremum) plus, for additive aggregates,
// the aligned increments that semi-naive propagation must feed into
// downstream sums instead of the totals.
type AggDelta struct {
	Rows []types.Row
	Incs []types.Value
	// News marks entries whose group first appeared in this merge.
	News []bool
}

// NewAggRDD creates an empty AggRDD.
func (c *Cluster) NewAggRDD(schema types.Schema, key []int, valIdx int, kind types.AggKind) *AggRDD {
	return c.NewAggRDDN(schema, key, valIdx, kind, c.cfg.Partitions)
}

// NewAggRDDN is NewAggRDD with an explicit partition count.
func (c *Cluster) NewAggRDDN(schema types.Schema, key []int, valIdx int, kind types.AggKind, parts int) *AggRDD {
	a := &AggRDD{
		Schema: schema,
		Key:    append([]int(nil), key...),
		ValIdx: valIdx,
		Kind:   kind,
		Owner:  make([]int, parts),
		c:      c,
		idx:    make([]*keyIndex, parts),
		rows:   make([][]types.Row, parts),
		slab:   make([]types.RowSlab, parts),
	}
	for i := range a.Owner {
		a.Owner[i] = c.DefaultOwner(i)
		a.idx[i] = newKeyIndex()
	}
	return a
}

// Merge folds incoming contribution rows into partition part. For min/max
// the value column of an incoming row is a candidate value; for sum/count it
// is an increment. Must be called from the task owning the partition.
//
// Ownership: incoming rows stay caller-owned (a new group stores a copy in
// the partition's slab, never the incoming row itself — see below), and the
// returned delta rows alias the stored state (the value column reflects the
// new total or extremum at merge time). Callers must treat delta rows as
// read-only and consume them before the next merge of the same partition —
// exactly the lifecycle of semi-naive deltas.
func (a *AggRDD) Merge(part int, incoming []types.Row) AggDelta {
	if a.c.cfg.ImmutableState {
		a.copyPartition(part)
	}
	var d AggDelta
	additive := a.Kind.Additive()
	x := a.idx[part] // after the ImmutableState clone above
	for _, r := range incoming {
		v := r[a.ValIdx]
		// Encode the group key once; the scratch bytes stay valid through
		// the get, so a miss reuses them for the insert.
		b, h := x.encKey(r, a.Key)
		idx, ok := x.get(b, h)
		if !ok {
			if additive && v.AsFloat() == 0 {
				continue // zero increment on a fresh group derives nothing
			}
			x.getOrInsert(b, h)
			// Store a copy: a second contribution to this group later in
			// the same batch updates the stored row's value column in
			// place, and adopting the caller's row would leak that
			// mutation into the input batch — Checkpoint/Restore only
			// reverts rows that existed at snapshot time, so a replay of
			// the same batch would then double-count the corrupted row.
			nr := a.slab[part].Clone(r)
			a.rows[part] = append(a.rows[part], nr)
			d.Rows = append(d.Rows, nr)
			d.News = append(d.News, true)
			if additive {
				d.Incs = append(d.Incs, v)
			}
			continue
		}
		cur := a.rows[part][idx][a.ValIdx]
		if additive {
			if v.AsFloat() == 0 {
				continue
			}
			nv := cur.Add(v)
			a.rows[part][idx][a.ValIdx] = nv
			d.Rows = append(d.Rows, a.rows[part][idx])
			d.News = append(d.News, false)
			d.Incs = append(d.Incs, v)
			continue
		}
		if a.Kind.Improves(v, cur) {
			a.rows[part][idx][a.ValIdx] = v
			d.Rows = append(d.Rows, a.rows[part][idx])
			d.News = append(d.News, false)
		}
	}
	return d
}

// copyPartition simulates an immutable-RDD union by duplicating the
// partition's entire index and row storage before mutation. The copy goes
// into a fresh slab, so the previous generation is garbage once the deltas
// aliasing it are consumed.
func (a *AggRDD) copyPartition(part int) {
	a.idx[part] = a.idx[part].clone()
	a.rows[part] = types.CloneRows(a.rows[part])
	a.slab[part] = types.RowSlab{}
}

// Rows returns the accumulated group rows of a partition (no copy; callers
// must not mutate).
func (a *AggRDD) Rows(part int) []types.Row { return a.rows[part] }

// Reset is SetRDD.Reset: every partition empties and keeps its memory.
func (a *AggRDD) Reset() {
	for p := range a.rows {
		a.rows[p] = a.rows[p][:0]
		a.slab[p].Reset()
		a.idx[p].reset()
	}
}

// The paper's Section 6.1 argues SetRDD's mutability does not compromise
// fault recovery: the accumulated state acts as a checkpoint, so a failure
// replays only the current iteration's job. Checkpoint/Restore implement
// that mechanism — a per-partition snapshot taken before a merge, restored
// if the task must be replayed. Because the key index assigns dense
// insertion-ordered ids that parallel the append-only row slice, a
// checkpoint is just the partition's length (plus saved aggregate values
// for AggRDD); Restore truncates the index back to it and simply abandons
// the dropped rows' slab space. The snapshot itself is O(1) — the rebuild
// cost moves to the failure-replay path.

// SetCheckpoint captures one SetRDD partition's state.
type SetCheckpoint struct {
	part   int
	rowLen int
}

// Checkpoint snapshots a partition before a merge.
func (s *SetRDD) Checkpoint(part int) *SetCheckpoint {
	return &SetCheckpoint{part: part, rowLen: len(s.rows[part])}
}

// Restore rolls the partition back to the checkpoint, undoing any merges
// applied since.
func (s *SetRDD) Restore(cp *SetCheckpoint) {
	s.rows[cp.part] = s.rows[cp.part][:cp.rowLen]
	s.idx[cp.part].truncate(cp.rowLen)
}

// AggCheckpoint captures one AggRDD partition's state: the partition length
// plus the aggregate values (rows themselves are updated in place, so the
// values must be saved).
type AggCheckpoint struct {
	part   int
	rowLen int
	vals   []types.Value
}

// Checkpoint snapshots a partition before a merge.
func (a *AggRDD) Checkpoint(part int) *AggCheckpoint {
	cp := &AggCheckpoint{part: part, rowLen: len(a.rows[part])}
	cp.vals = make([]types.Value, cp.rowLen)
	for i, r := range a.rows[part] {
		cp.vals[i] = r[a.ValIdx]
	}
	return cp
}

// Restore rolls the partition back to the checkpoint: groups added since
// are dropped and updated aggregate values are reverted.
func (a *AggRDD) Restore(cp *AggCheckpoint) {
	a.rows[cp.part] = a.rows[cp.part][:cp.rowLen]
	a.idx[cp.part].truncate(cp.rowLen)
	for i, v := range cp.vals {
		a.rows[cp.part][i][a.ValIdx] = v
	}
}
