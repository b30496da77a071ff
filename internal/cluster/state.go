package cluster

import (
	"github.com/rasql/rasql-go/internal/types"
)

// State is the *all* relation of a recursive view, the paper's Section 6.1
// SetRDD: each partition keeps an append-only group table cached on its
// owner worker, so the per-iteration union/set-difference only pays for
// genuinely new tuples instead of copying the whole RDD. A set view is the
// PreM case with no aggregate: its key is every column, ValIdx is -1 and
// Kind is AggNone. An aggregate view maps a group key to the row holding
// the group's current aggregate value, and merging incoming contributions
// is the paper's Algorithm 5 Reduce stage.
//
// Each partition is one types.Combiner keyed on Key: its groups are the
// partition's rows, in insertion order. A probe hashes the row's key values
// and compares them in place, so the steady-state hot path (rows whose
// group is already there) does zero heap allocation, and the dense group
// ids are what make checkpoints cheap below.
//
// The state owns its rows: Merge copies each new group's row into the
// partition's append-only slab, so incoming batches stay caller-owned (the
// caller may reuse their storage as soon as Merge returns) and one surviving
// row never pins the buffer it arrived in.
//
// The state outlives one fixpoint: Reset empties it for the next execution
// and keeps every backing array — group table, slab chunks and delta
// buffers — so a reused state re-fills the memory the previous execution
// sized instead of growing it again.
//
// When the cluster is configured with ImmutableState the merge instead
// copies the full partition contents every iteration — vanilla immutable
// RDD behaviour, kept for the ablation benchmark.
type State struct {
	// Key holds the group-by column indices: every column of a set view,
	// and all head columns except the aggregate of an aggregate view, per
	// RaSQL's implicit group-by rule.
	Key []int
	// ValIdx is the aggregate value column index, -1 for a set view.
	ValIdx int
	// Kind is the aggregate, AggNone for a set view.
	Kind types.AggKind

	c *Cluster
	// idx[part].Groups() are the partition's rows; an aggregate view's
	// value column holds the running total or extremum.
	idx  []types.Combiner
	slab []types.RowSlab // slab[part] backs them
	// delta[part] is the buffer an aggregate view's Merge derives the
	// partition's delta into, truncated by the next Merge.
	delta []Delta
}

// Delta is what one merge derived: the rows that are new or whose value
// improved (min/max) or changed (sum/count), plus, for additive aggregates,
// the aligned increments that semi-naive propagation must feed into
// downstream sums instead of the totals.
type Delta struct {
	Rows []types.Row
	Incs []types.Value
	// News marks entries whose group first appeared in this merge; nil for
	// a set view, whose every row is new.
	News []bool
}

// NewState creates an empty state with the cluster's default partitions.
func (c *Cluster) NewState(key []int, valIdx int, kind types.AggKind) *State {
	return c.newState(key, valIdx, kind, c.cfg.Partitions)
}

func (c *Cluster) newState(key []int, valIdx int, kind types.AggKind, parts int) *State {
	s := &State{
		Key:    append([]int(nil), key...),
		ValIdx: valIdx,
		Kind:   kind,
		c:      c,
		idx:    make([]types.Combiner, parts),
		slab:   make([]types.RowSlab, parts),
		delta:  make([]Delta, parts),
	}
	s.Reset()
	return s
}

// NewAggRDDN is an aggregate NewState with an explicit partition count; the
// schema is unused. Its one caller outside tests is the benchmark's merge
// kernel (benchmarks/rasqlbench/kernels.go).
func (c *Cluster) NewAggRDDN(_ types.Schema, key []int, valIdx int, kind types.AggKind, parts int) *State {
	return c.newState(key, valIdx, kind, parts)
}

// SetRDD is a set view's State whose Merge returns the delta's rows. Its one
// caller outside tests is the benchmark's merge kernel
// (benchmarks/rasqlbench/kernels.go).
type SetRDD struct{ *State }

// NewSetRDDN is a set NewState, keyed on every column of schema, with an
// explicit partition count. Its one caller outside tests is the benchmark's
// merge kernel (benchmarks/rasqlbench/kernels.go).
func (c *Cluster) NewSetRDDN(schema types.Schema, parts int) SetRDD {
	key := make([]int, schema.Len())
	for i := range key {
		key[i] = i
	}
	return SetRDD{c.newState(key, -1, types.AggNone, parts)}
}

// Merge is State.Merge's rows.
func (s SetRDD) Merge(part int, incoming []types.Row) []types.Row {
	return s.State.Merge(part, incoming).Rows
}

// Merge folds incoming rows into partition part and returns the delta. For
// a set view it set-differences incoming against the partition and unions
// the survivors in. For min/max the value column of an incoming row is a
// candidate value; for sum/count it is an increment. Must be called from
// the task owning the partition.
//
// Ownership: incoming rows stay caller-owned (a new group stores a copy in
// the partition's slab, never the incoming row itself — see below), and the
// returned delta rows alias the stored state (the value column reflects the
// new total or extremum at merge time). An aggregate view's delta slices are
// the partition's delta buffer, which the next Merge of the partition
// truncates and refills; a set view's delta is a capped tail of the
// partition's rows. Either way callers must treat the delta as read-only and
// consume it before the next merge of the same partition — exactly the
// lifecycle of semi-naive deltas — so a warm merge allocates nothing for it.
func (s *State) Merge(part int, incoming []types.Row) Delta {
	if s.c.cfg.ImmutableState {
		// Simulate an immutable union: copy the partition's table and
		// rows, all previous data, into fresh storage. The previous
		// generation is garbage once the deltas aliasing it are consumed.
		s.idx[part] = s.idx[part].Clone()
		s.slab[part] = types.RowSlab{}
	}
	x := &s.idx[part]
	if s.Kind == types.AggNone {
		// A set view's delta is the partition's new tail, capped so that
		// a caller's append cannot write into the next merge's rows.
		before := len(x.Groups())
		for _, r := range incoming {
			x.Group(r, &s.slab[part])
		}
		rows := x.Groups()
		return Delta{Rows: rows[before:len(rows):len(rows)]}
	}
	d := &s.delta[part]
	d.Rows, d.Incs, d.News = d.Rows[:0], d.Incs[:0], d.News[:0]
	additive := s.Kind.Additive()
	for _, r := range incoming {
		v := r[s.ValIdx]
		if additive && (v.IsNull() || v.AsFloat() == 0) {
			continue // a NULL or zero increment derives nothing, new group or not
		}
		// A new group stores a copy: a second contribution to it later in
		// the same batch updates the stored row's value column in place,
		// and adopting the caller's row would leak that mutation into the
		// input batch — Checkpoint/Restore only reverts rows that existed
		// at snapshot time, so a replay of the same batch would then
		// double-count the corrupted row.
		g, fresh := x.Group(r, &s.slab[part])
		switch {
		case fresh:
		case additive:
			g[s.ValIdx] = g[s.ValIdx].Add(v)
		case s.Kind.Improves(v, g[s.ValIdx]):
			g[s.ValIdx] = v
		default:
			continue
		}
		d.Rows = append(d.Rows, g)
		d.News = append(d.News, fresh)
		if additive {
			d.Incs = append(d.Incs, v)
		}
	}
	return *d
}

// Rows returns the accumulated rows of a partition (no copy: the rows live
// in the state's slab and callers must not mutate them).
func (s *State) Rows(part int) []types.Row { return s.idx[part].Groups() }

// Reset empties every partition and keeps its memory. Rows read from the
// state before the call are overwritten by later merges.
func (s *State) Reset() {
	for p := range s.idx {
		s.idx[p].Reset(s.Key, s.ValIdx, s.Kind)
		s.slab[p].Reset()
	}
}

// The paper's Section 6.1 argues SetRDD's mutability does not compromise
// fault recovery: the accumulated state acts as a checkpoint, so a failure
// replays only the current iteration's job. Checkpoint/Restore implement
// that mechanism — a per-partition snapshot taken before a merge, restored
// if the task must be replayed. Because a partition's table gives its
// groups dense insertion-ordered ids, a checkpoint is the partition's group
// count, plus for an aggregate view every group's aggregate value: a set
// view's snapshot is O(1), an aggregate view's O(groups). Restore truncates
// the table back to that count in O(dropped groups), zeroing only the
// dropped groups' slots, puts back the saved values (O(groups), aggregate
// views only), and simply abandons the dropped rows' slab space.

// Checkpoint captures one partition's state: its group count and, for an
// aggregate view, the aggregate value of every group (rows are updated in
// place, so the values must be saved).
type Checkpoint struct {
	part, groups int
	vals         []types.Value
}

// Checkpoint snapshots a partition before a merge.
func (s *State) Checkpoint(part int) Checkpoint {
	rows := s.Rows(part)
	cp := Checkpoint{part: part, groups: len(rows)}
	if s.ValIdx >= 0 {
		cp.vals = make([]types.Value, len(rows))
		for i, r := range rows {
			cp.vals[i] = r[s.ValIdx]
		}
	}
	return cp
}

// Restore rolls the partition back to the checkpoint: groups added since
// are dropped and updated aggregate values are reverted.
func (s *State) Restore(cp Checkpoint) {
	s.idx[cp.part].Truncate(cp.groups)
	rows := s.Rows(cp.part)
	for i, v := range cp.vals {
		rows[i][s.ValIdx] = v
	}
}
