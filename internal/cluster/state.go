package cluster

import (
	"github.com/rasql/rasql-go/internal/types"
)

// SetRDD is the paper's Section 6.1 data structure for the *all* relation of
// a set-semantics recursive view: each partition keeps an append-only hash
// set cached on its owner worker, so the per-iteration union/set-difference
// only pays for genuinely new tuples instead of copying the whole RDD.
//
// Each partition's set is one types.Combiner keyed on every column: its
// groups are the partition's rows, in insertion order. A probe hashes the
// row's values and compares them in place, so the steady-state hot path
// (duplicate rows arriving after the first iteration) does zero heap
// allocation, and the dense group ids are what make checkpoints cheap below.
//
// The state owns its rows: Merge copies each accepted row into the
// partition's append-only slab, so incoming batches stay caller-owned (the
// caller may reuse their storage as soon as Merge returns) and one surviving
// row never pins the buffer it arrived in.
//
// Like the paper's cached SetRDD, the state outlives one fixpoint: Reset
// empties it for the next execution and keeps every backing array — group
// table and slab chunks — so a reused state re-fills the memory the
// previous execution sized instead of growing it again.
//
// When the cluster is configured with ImmutableState the merge instead
// copies the full partition contents every iteration — vanilla immutable
// RDD behaviour, kept for the ablation benchmark.
type SetRDD struct {
	Schema types.Schema
	Owner  []int

	c    *Cluster
	cols []int            // every column: a row is its own key
	idx  []types.Combiner // idx[part].Groups() are the partition's rows
	slab []types.RowSlab  // slab[part] backs them
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
		cols:   make([]int, schema.Len()),
		idx:    make([]types.Combiner, parts),
		slab:   make([]types.RowSlab, parts),
	}
	for i := range s.cols {
		s.cols[i] = i
	}
	for i := range s.Owner {
		s.Owner[i] = c.DefaultOwner(i)
	}
	s.Reset()
	return s
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
		// Simulate an immutable union: copy the partition's table and
		// rows, all previous data, into fresh storage.
		s.idx[part] = s.idx[part].Clone()
		s.slab[part] = types.RowSlab{}
	}
	x := &s.idx[part]
	before := len(x.Groups())
	for _, r := range incoming {
		x.Group(r, &s.slab[part])
	}
	rows := x.Groups()
	return rows[before:len(rows):len(rows)]
}

// Rows returns the accumulated rows of a partition (no copy: the rows live
// in the state's slab and callers must not mutate them).
func (s *SetRDD) Rows(part int) []types.Row { return s.idx[part].Groups() }

// Reset empties every partition and keeps its memory. Rows read from the
// state before the call are overwritten by later merges.
func (s *SetRDD) Reset() {
	for p := range s.idx {
		s.idx[p].Reset(s.cols, -1, types.AggNone)
		s.slab[p].Reset()
	}
}

// AggRDD is the *all* relation of a recursive view with an aggregate in its
// head: each partition maps a group key to the row holding the group's
// current aggregate value. Merging incoming contributions yields the delta —
// groups that are new or whose value improved (min/max) or changed
// (sum/count) this iteration, which is exactly the paper's Algorithm 5
// Reduce stage.
//
// Each partition is one types.Combiner keyed on Key, as SetRDD's is on
// every column: its groups are the partition's rows.
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

	c *Cluster
	// idx[part].Groups() are the partition's rows; the value column holds
	// the running total or extremum.
	idx  []types.Combiner
	slab []types.RowSlab // slab[part] backs them
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
		idx:    make([]types.Combiner, parts),
		slab:   make([]types.RowSlab, parts),
	}
	for i := range a.Owner {
		a.Owner[i] = c.DefaultOwner(i)
	}
	a.Reset()
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
		// Simulate an immutable union, as SetRDD.Merge does. The previous
		// generation is garbage once the deltas aliasing it are consumed.
		a.idx[part] = a.idx[part].Clone()
		a.slab[part] = types.RowSlab{}
	}
	var d AggDelta
	additive := a.Kind.Additive()
	x := &a.idx[part]
	for _, r := range incoming {
		v := r[a.ValIdx]
		if additive && v.AsFloat() == 0 {
			continue // a zero increment derives nothing, new group or not
		}
		// A new group stores a copy: a second contribution to it later in
		// the same batch updates the stored row's value column in place,
		// and adopting the caller's row would leak that mutation into the
		// input batch — Checkpoint/Restore only reverts rows that existed
		// at snapshot time, so a replay of the same batch would then
		// double-count the corrupted row.
		g, fresh := x.Group(r, &a.slab[part])
		switch {
		case fresh:
		case additive:
			g[a.ValIdx] = g[a.ValIdx].Add(v)
		case a.Kind.Improves(v, g[a.ValIdx]):
			g[a.ValIdx] = v
		default:
			continue
		}
		d.Rows = append(d.Rows, g)
		d.News = append(d.News, fresh)
		if additive {
			d.Incs = append(d.Incs, v)
		}
	}
	return d
}

// Rows returns the accumulated group rows of a partition (no copy; callers
// must not mutate).
func (a *AggRDD) Rows(part int) []types.Row { return a.idx[part].Groups() }

// Reset is SetRDD.Reset: every partition empties and keeps its memory.
func (a *AggRDD) Reset() {
	for p := range a.idx {
		a.idx[p].Reset(a.Key, a.ValIdx, a.Kind)
		a.slab[p].Reset()
	}
}

// The paper's Section 6.1 argues SetRDD's mutability does not compromise
// fault recovery: the accumulated state acts as a checkpoint, so a failure
// replays only the current iteration's job. Checkpoint/Restore implement
// that mechanism — a per-partition snapshot taken before a merge, restored
// if the task must be replayed. Because a partition's table gives its
// groups dense insertion-ordered ids, a checkpoint is the partition's group
// count, plus for AggRDD every group's aggregate value: SetRDD's snapshot
// is O(1), AggRDD's O(groups). Restore truncates the table back to that
// count in O(dropped groups), zeroing only the dropped groups' slots, puts
// back the saved values (O(groups), AggRDD only), and simply abandons the
// dropped rows' slab space.

// SetCheckpoint captures one SetRDD partition's state.
type SetCheckpoint struct {
	part   int
	rowLen int
}

// Checkpoint snapshots a partition before a merge.
func (s *SetRDD) Checkpoint(part int) *SetCheckpoint {
	return &SetCheckpoint{part: part, rowLen: len(s.Rows(part))}
}

// Restore rolls the partition back to the checkpoint, undoing any merges
// applied since.
func (s *SetRDD) Restore(cp *SetCheckpoint) {
	s.idx[cp.part].Truncate(cp.rowLen)
}

// AggCheckpoint captures one AggRDD partition's state: the aggregate value
// of every group it held (rows are updated in place, so the values must be
// saved), whose count is the partition's length.
type AggCheckpoint struct {
	part int
	vals []types.Value
}

// Checkpoint snapshots a partition before a merge.
func (a *AggRDD) Checkpoint(part int) *AggCheckpoint {
	rows := a.Rows(part)
	cp := &AggCheckpoint{part: part, vals: make([]types.Value, len(rows))}
	for i, r := range rows {
		cp.vals[i] = r[a.ValIdx]
	}
	return cp
}

// Restore rolls the partition back to the checkpoint: groups added since
// are dropped and updated aggregate values are reverted.
func (a *AggRDD) Restore(cp *AggCheckpoint) {
	a.idx[cp.part].Truncate(len(cp.vals))
	rows := a.Rows(cp.part)
	for i, v := range cp.vals {
		rows[i][a.ValIdx] = v
	}
}
