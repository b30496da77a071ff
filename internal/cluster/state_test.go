package cluster

import (
	"slices"
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

// Len returns the total row count across partitions.
func (p *PartitionedRelation) Len() int {
	n := 0
	for _, part := range p.Parts {
		n += len(part)
	}
	return n
}

// Len returns the total number of rows (groups) across partitions.
func (s *State) Len() int {
	n := 0
	for p := range s.idx {
		n += len(s.Rows(p))
	}
	return n
}

// Len returns the number of distinct keys.
func (t *RowTable) Len() int { return max(len(t.starts)-1, 0) }

// newSetState creates a set view's state: keyed on every column, with no
// aggregate.
func newSetState(c *Cluster, schema types.Schema) *State {
	key := make([]int, schema.Len())
	for i := range key {
		key[i] = i
	}
	return c.NewState(key, -1, types.AggNone)
}

// Contains reports whether the partition already holds the row's group.
func (s *State) Contains(part int, r types.Row) bool {
	_, ok := s.Lookup(part, r)
	return ok
}

// Empty reports whether the delta carries no updates.
func (d Delta) Empty() bool { return len(d.Rows) == 0 }

// Lookup returns the current row whose group key matches the given row's,
// if present.
func (s *State) Lookup(part int, r types.Row) (types.Row, bool) {
	return findKey(s.Rows(part), r, s.Key)
}

// findKey scans rows for the one whose key columns encode as r's do.
func findKey(rows []types.Row, r types.Row, key []int) (types.Row, bool) {
	want := types.KeyString(r, key)
	for _, g := range rows {
		if types.KeyString(g, key) == want {
			return g, true
		}
	}
	return nil, false
}

func TestSetRDDMergeDedups(t *testing.T) {
	for _, immutable := range []bool{false, true} {
		c := New(Config{Workers: 2, Partitions: 2, ImmutableState: immutable})
		s := newSetState(c, pairSchema())
		d1 := s.Merge(0, intRows([2]int64{1, 2}, [2]int64{1, 2}, [2]int64{3, 4})).Rows
		if len(d1) != 2 {
			t.Errorf("immutable=%v: first merge delta = %d, want 2", immutable, len(d1))
		}
		d2 := s.Merge(0, intRows([2]int64{1, 2}, [2]int64{5, 6})).Rows
		if len(d2) != 1 || !slices.EqualFunc(d2[0], types.Row{types.Int(5), types.Int(6)}, types.Value.Equal) {
			t.Errorf("immutable=%v: second merge delta = %v", immutable, d2)
		}
		if s.Len() != 3 {
			t.Errorf("immutable=%v: Len = %d, want 3", immutable, s.Len())
		}
		if !s.Contains(0, types.Row{types.Int(3), types.Int(4)}) {
			t.Errorf("immutable=%v: Contains failed", immutable)
		}
		if s.Contains(0, types.Row{types.Int(9), types.Int(9)}) {
			t.Errorf("immutable=%v: Contains false positive", immutable)
		}
		if len(s.Rows(0)) != 3 || len(s.Rows(1)) != 0 {
			t.Errorf("immutable=%v: Rows per partition wrong", immutable)
		}
	}
}

// A set merge's delta is the partition's new tail capped at its length: a
// caller that appends to it gets fresh storage, so the appended row and the
// rows of the partition's next merge never overwrite each other.
func TestSetDeltaCapped(t *testing.T) {
	c := newTestCluster(1, 1)
	s := newSetState(c, pairSchema())
	d := s.Merge(0, intRows([2]int64{1, 2}, [2]int64{3, 4}, [2]int64{5, 6})).Rows
	if rows := s.Rows(0); cap(rows) == len(rows) {
		t.Fatalf("the partition's rows have no spare capacity (%d), so the test cannot tell", cap(rows))
	}
	extra := types.Row{types.Int(-1), types.Int(-1)}
	d = append(d, extra)
	next := s.Merge(0, intRows([2]int64{7, 8})).Rows
	if !slices.EqualFunc(d[len(d)-1], extra, types.Value.Equal) {
		t.Errorf("the next merge overwrote the row appended to the delta: %v, want %v", d[len(d)-1], extra)
	}
	if len(next) != 1 || s.Len() != 4 || !s.Contains(0, types.Row{types.Int(7), types.Int(8)}) || s.Contains(0, extra) {
		t.Errorf("after an append to the delta the next merge = %v, state = %v", next, s.Rows(0))
	}
}

func aggRow(k int64, v float64) types.Row {
	return types.Row{types.Int(k), types.Float(v)}
}

func TestAggRDDMinMerge(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewState([]int{0}, 1, types.AggMin)

	d := a.Merge(0, []types.Row{aggRow(1, 5), aggRow(2, 7)})
	if len(d.Rows) != 2 || d.Incs != nil {
		t.Fatalf("fresh groups delta = %v", d)
	}
	// Improvement produces a delta; a worse value does not.
	d = a.Merge(0, []types.Row{aggRow(1, 3), aggRow(2, 9)})
	if len(d.Rows) != 1 || !slices.EqualFunc(d.Rows[0], aggRow(1, 3), types.Value.Equal) {
		t.Fatalf("improvement delta = %v", d.Rows)
	}
	// Equal value is not an improvement.
	if d = a.Merge(0, []types.Row{aggRow(1, 3)}); !d.Empty() {
		t.Errorf("equal value should not produce delta: %v", d.Rows)
	}
	// Stored value reflects the improvement.
	row, ok := a.Lookup(0, aggRow(1, 0))
	if !ok || !row[1].Equal(types.Float(3)) {
		t.Errorf("stored value = %v", row)
	}
}

func TestAggRDDMaxMerge(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewState([]int{0}, 1, types.AggMax)
	a.Merge(0, []types.Row{aggRow(1, 5)})
	if d := a.Merge(0, []types.Row{aggRow(1, 4)}); !d.Empty() {
		t.Error("smaller value should not improve max")
	}
	if d := a.Merge(0, []types.Row{aggRow(1, 6)}); len(d.Rows) != 1 {
		t.Error("larger value should improve max")
	}
}

func TestAggRDDSumCarriesIncrements(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewState([]int{0}, 1, types.AggSum)

	d := a.Merge(0, []types.Row{aggRow(1, 10)})
	if len(d.Rows) != 1 || !d.Rows[0][1].Equal(types.Float(10)) || !d.Incs[0].Equal(types.Float(10)) {
		t.Fatalf("fresh sum delta = %+v", d)
	}
	d = a.Merge(0, []types.Row{aggRow(1, 5)})
	if len(d.Rows) != 1 || !d.Rows[0][1].Equal(types.Float(15)) || !d.Incs[0].Equal(types.Float(5)) {
		t.Fatalf("sum delta should carry total 15 and increment 5: %+v", d)
	}
	// Zero increments derive nothing.
	if d = a.Merge(0, []types.Row{aggRow(1, 0), aggRow(2, 0)}); !d.Empty() {
		t.Errorf("zero increments should produce no delta: %+v", d)
	}
}

func TestAggRDDSumMultipleContributionsInBatch(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewState([]int{0}, 1, types.AggSum)
	a.Merge(0, []types.Row{aggRow(1, 1), aggRow(1, 2), aggRow(1, 3)})
	row, ok := a.Lookup(0, aggRow(1, 0))
	if !ok || !row[1].Equal(types.Float(6)) {
		t.Errorf("batched sum = %v, want 6", row)
	}
}

func TestAggRDDImmutableStateCopies(t *testing.T) {
	c := New(Config{Workers: 2, Partitions: 2, ImmutableState: true})
	a := c.NewState([]int{0}, 1, types.AggMin)
	a.Merge(0, []types.Row{aggRow(1, 5)})
	a.Merge(0, []types.Row{aggRow(1, 3)})
	row, ok := a.Lookup(0, aggRow(1, 0))
	if !ok || !row[1].Equal(types.Float(3)) {
		t.Errorf("immutable merge result = %v", row)
	}
	if a.Len() != 1 {
		t.Errorf("Len = %d", a.Len())
	}
}

func TestAggRDDDeltaAliasesState(t *testing.T) {
	// Documented ownership: delta rows alias stored state and are
	// read-only snapshots, consumed before the next merge.
	c := newTestCluster(2, 2)
	a := c.NewState([]int{0}, 1, types.AggMin)
	d := a.Merge(0, []types.Row{aggRow(1, 5)})
	if !d.Rows[0][1].Equal(types.Float(5)) {
		t.Errorf("delta value = %v", d.Rows[0][1])
	}
	a.Merge(0, []types.Row{aggRow(1, 3)})
	row, _ := a.Lookup(0, aggRow(1, 0))
	if !row[1].Equal(types.Float(3)) {
		t.Errorf("stored value = %v", row[1])
	}
}

func TestPartialAggregate(t *testing.T) {
	rows := []types.Row{aggRow(1, 5), aggRow(1, 3), aggRow(2, 7), aggRow(1, 9)}
	var c types.Combiner
	out := c.Combine(types.CloneRows(rows), []int{0}, 1, types.AggMin)
	if len(out) != 2 {
		t.Fatalf("partial agg groups = %d", len(out))
	}
	vals := map[int64]float64{}
	for _, r := range out {
		vals[r[0].AsInt()] = r[1].AsFloat()
	}
	if vals[1] != 3 || vals[2] != 7 {
		t.Errorf("partial min = %v", vals)
	}
	out = c.Combine(types.CloneRows(rows), []int{0}, 1, types.AggSum)
	vals = map[int64]float64{}
	for _, r := range out {
		vals[r[0].AsInt()] = r[1].AsFloat()
	}
	if vals[1] != 17 || vals[2] != 7 {
		t.Errorf("partial sum = %v", vals)
	}
}

func TestBroadcastBothModes(t *testing.T) {
	rows := intRows([2]int64{1, 10}, [2]int64{1, 11}, [2]int64{2, 20})
	var sizes [2]int64
	for i, compress := range []bool{false, true} {
		c := New(Config{Workers: 3, Partitions: 3, CompressBroadcast: compress}).NewQuery(nil)
		b := c.Broadcast(rows, pairSchema(), []int{0})
		for w := 0; w < 3; w++ {
			tab := b.Table(w)
			if tab.Len() != 2 {
				t.Fatalf("compress=%v worker %d: %d keys, want 2", compress, w, tab.Len())
			}
			if got := tab.ProbeValues([]types.Value{types.Int(1)}); len(got) != 2 {
				t.Errorf("compress=%v: key 1 bucket = %d rows", compress, len(got))
			}
		}
		sizes[i] = c.Metrics.Snapshot().BroadcastBytes
	}
	if sizes[1] >= sizes[0] {
		t.Errorf("compressed broadcast (%d bytes) should be smaller than hashed (%d bytes)",
			sizes[1], sizes[0])
	}
}

func TestCountContribution(t *testing.T) {
	if !types.CountContribution(types.Int(5)).Equal(types.Int(5)) {
		t.Error("numeric count contributions propagate")
	}
	if !types.CountContribution(types.Str("bob")).Equal(types.Int(1)) {
		t.Error("non-numeric count contributions count as 1")
	}
}

func TestSetRDDCheckpointRestore(t *testing.T) {
	c := newTestCluster(2, 2)
	s := newSetState(c, pairSchema())
	s.Merge(0, intRows([2]int64{1, 2}))
	cp := s.Checkpoint(0)
	s.Merge(0, intRows([2]int64{3, 4}, [2]int64{5, 6}))
	s.Restore(cp)
	if s.Len() != 1 || s.Contains(0, types.Row{types.Int(3), types.Int(4)}) {
		t.Fatalf("restore failed: len=%d", s.Len())
	}
	// Replaying the same merge after restore yields the same delta.
	d := s.Merge(0, intRows([2]int64{3, 4}, [2]int64{5, 6}))
	if len(d.Rows) != 2 || s.Len() != 3 {
		t.Errorf("replay delta = %d, len = %d", len(d.Rows), s.Len())
	}
}

func TestAggRDDCheckpointRestoreAdditive(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewState([]int{0}, 1, types.AggSum)
	a.Merge(0, []types.Row{aggRow(1, 10)})
	cp := a.Checkpoint(0)
	a.Merge(0, []types.Row{aggRow(1, 5), aggRow(2, 7)})
	a.Restore(cp)
	row, ok := a.Lookup(0, aggRow(1, 0))
	if !ok || !row[1].Equal(types.Float(10)) {
		t.Fatalf("restored total = %v", row)
	}
	if _, ok := a.Lookup(0, aggRow(2, 0)); ok {
		t.Fatal("new group should be gone after restore")
	}
	// Replay: exactly-once accumulation despite the earlier failed merge.
	a.Merge(0, []types.Row{aggRow(1, 5), aggRow(2, 7)})
	row, _ = a.Lookup(0, aggRow(1, 0))
	if !row[1].Equal(types.Float(15)) {
		t.Errorf("replayed total = %v, want 15", row[1])
	}
}

func TestAggRDDCheckpointRestoreExtremum(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewState([]int{0}, 1, types.AggMin)
	a.Merge(0, []types.Row{aggRow(1, 10)})
	cp := a.Checkpoint(0)
	a.Merge(0, []types.Row{aggRow(1, 3)})
	a.Restore(cp)
	row, _ := a.Lookup(0, aggRow(1, 0))
	if !row[1].Equal(types.Float(10)) {
		t.Errorf("restored extremum = %v", row[1])
	}
}

// Restore must revert a merge that both improved existing groups and added
// new ones, and leave the group table consistent for the replay.
func TestAggRDDCheckpointRestoreMixedMerge(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewState([]int{0}, 1, types.AggMin)
	a.Merge(0, []types.Row{aggRow(1, 10), aggRow(2, 20)})
	cp := a.Checkpoint(0)
	a.Merge(0, []types.Row{aggRow(1, 4), aggRow(3, 30), aggRow(2, 25)})
	a.Restore(cp)
	if a.Len() != 2 {
		t.Fatalf("Len after restore = %d, want 2", a.Len())
	}
	for k, want := range map[int64]float64{1: 10, 2: 20} {
		row, ok := a.Lookup(0, aggRow(k, 0))
		if !ok || !row[1].Equal(types.Float(want)) {
			t.Errorf("group %d after restore = %v, want %v", k, row, want)
		}
	}
	if _, ok := a.Lookup(0, aggRow(3, 0)); ok {
		t.Error("group 3 survived restore")
	}
	// The replayed merge lands identically: 1 improves, 3 is new, 2 does not.
	d := a.Merge(0, []types.Row{aggRow(1, 4), aggRow(3, 30), aggRow(2, 25)})
	if len(d.Rows) != 2 {
		t.Fatalf("replay delta = %v, want rows for groups 1 and 3", d.Rows)
	}
	row, _ := a.Lookup(0, aggRow(2, 0))
	if !row[1].Equal(types.Float(20)) {
		t.Errorf("group 2 after replay = %v, want 20", row[1])
	}
}

// Checkpointing a partition that has never seen a merge must work: the
// recovery path snapshots every task up front, including those whose
// partition receives no rows.
func TestCheckpointEmptyPartition(t *testing.T) {
	c := newTestCluster(2, 2)
	s := newSetState(c, pairSchema())
	scp := s.Checkpoint(1)
	s.Merge(1, intRows([2]int64{7, 8}))
	s.Restore(scp)
	if s.Len() != 0 || len(s.Rows(1)) != 0 {
		t.Errorf("set empty-partition restore left %d rows", s.Len())
	}
	if d := s.Merge(1, intRows([2]int64{7, 8})); len(d.Rows) != 1 {
		t.Errorf("replay after empty restore delta = %d, want 1", len(d.Rows))
	}

	a := c.NewState([]int{0}, 1, types.AggSum)
	acp := a.Checkpoint(1)
	a.Merge(1, []types.Row{aggRow(1, 5)})
	a.Restore(acp)
	if a.Len() != 0 {
		t.Errorf("aggregate empty-partition restore left %d groups", a.Len())
	}
	a.Merge(1, []types.Row{aggRow(1, 5)})
	if row, ok := a.Lookup(1, aggRow(1, 0)); !ok || !row[1].Equal(types.Float(5)) {
		t.Errorf("replay after empty restore = %v, want 5", row)
	}
}

// Restoring the same checkpoint twice is a no-op the second time — the
// retry loop may roll back again if a second attempt also dies.
func TestCheckpointDoubleRestoreIdempotent(t *testing.T) {
	c := newTestCluster(2, 2)
	s := newSetState(c, pairSchema())
	s.Merge(0, intRows([2]int64{1, 2}))
	scp := s.Checkpoint(0)
	s.Merge(0, intRows([2]int64{3, 4}))
	s.Restore(scp)
	s.Restore(scp)
	if s.Len() != 1 || !s.Contains(0, types.Row{types.Int(1), types.Int(2)}) {
		t.Errorf("double restore corrupted the set state: len=%d", s.Len())
	}

	a := c.NewState([]int{0}, 1, types.AggSum)
	a.Merge(0, []types.Row{aggRow(1, 10)})
	acp := a.Checkpoint(0)
	a.Merge(0, []types.Row{aggRow(1, 5), aggRow(2, 1)})
	a.Restore(acp)
	a.Merge(0, []types.Row{aggRow(1, 2)}) // second attempt gets partway…
	a.Restore(acp)                        // …and dies too
	row, ok := a.Lookup(0, aggRow(1, 0))
	if !ok || !row[1].Equal(types.Float(10)) || a.Len() != 1 {
		t.Errorf("double restore corrupted the aggregate state: %v len=%d", row, a.Len())
	}
}

// Regression for the replay double-count bug: a batch with two contributions
// to the same fresh group updates the stored row's value column in place. If
// Merge adopts the caller's row for the new group instead of cloning it, that
// in-place update corrupts the input batch — and a restore-then-replay of the
// same slice (exactly what task retry does) double-counts.
func TestAggRDDRestoreThenReplaySameSlice(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewState([]int{0}, 1, types.AggSum)
	batch := []types.Row{aggRow(1, 1), aggRow(1, 2)}
	cp := a.Checkpoint(0)
	a.Merge(0, batch)
	if !batch[0][1].Equal(types.Float(1)) || !batch[1][1].Equal(types.Float(2)) {
		t.Fatalf("Merge mutated its input batch: %v", batch)
	}
	a.Restore(cp)
	a.Merge(0, batch)
	row, ok := a.Lookup(0, aggRow(1, 0))
	if !ok || !row[1].Equal(types.Float(3)) {
		t.Errorf("replayed total = %v, want 3 (double-count bug)", row)
	}
}

// mergeTarget runs one ownership scenario against a set or an aggregate
// view's state.
type mergeTarget struct {
	name  string
	merge func(part int, rows []types.Row) Delta
	rows  func(part int) []types.Row
	// checkpoint snapshots the partition and returns its restore.
	checkpoint func(part int) func()
}

func mergeTargets(immutable bool) []mergeTarget {
	c := New(Config{Workers: 2, Partitions: 2, ImmutableState: immutable})
	s := newSetState(c, pairSchema())
	targets := []mergeTarget{{
		name:       "set",
		merge:      s.Merge,
		rows:       s.Rows,
		checkpoint: func(p int) func() { cp := s.Checkpoint(p); return func() { s.Restore(cp) } },
	}}
	for _, kind := range []types.AggKind{types.AggMin, types.AggSum} {
		a := c.NewState([]int{0}, 1, kind)
		targets = append(targets, mergeTarget{
			name:  "agg-" + kind.String(),
			merge: a.Merge,
			rows:  a.Rows,
			checkpoint: func(p int) func() {
				cp := a.Checkpoint(p)
				return func() { a.Restore(cp) }
			},
		})
	}
	return targets
}

func sameRowSlices(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.EqualFunc(a[i], b[i], types.Value.Equal) {
			return false
		}
	}
	return true
}

// The ownership contract of the state, set and aggregate views alike: Merge copies what it keeps, so the
// caller may overwrite every incoming row the moment Merge returns (the
// workspace's scratch and receive memory do exactly that on the partition's
// next step)
// without touching the state or the delta it was handed.
func TestMergeLeavesIncomingCallerOwned(t *testing.T) {
	for _, immutable := range []bool{false, true} {
		for _, tg := range mergeTargets(immutable) {
			tg.merge(0, intRows([2]int64{1, 10}))
			// A duplicate, an update of a stored group, two rows of one
			// fresh group, and a plain new row.
			batch := intRows([2]int64{1, 10}, [2]int64{1, 4}, [2]int64{2, 7}, [2]int64{2, 5}, [2]int64{3, 9})
			delta := tg.merge(0, batch).Rows
			if len(delta) == 0 {
				t.Fatalf("%s immutable=%v: empty delta", tg.name, immutable)
			}
			wantDelta, wantState := types.CloneRows(delta), types.CloneRows(tg.rows(0))
			for _, r := range batch {
				for i := range r {
					r[i] = types.Int(-999)
				}
			}
			if !sameRowSlices(delta, wantDelta) {
				t.Errorf("%s immutable=%v: delta aliases the incoming batch: %v, want %v", tg.name, immutable, delta, wantDelta)
			}
			if !sameRowSlices(tg.rows(0), wantState) {
				t.Errorf("%s immutable=%v: state aliases the incoming batch: %v, want %v", tg.name, immutable, tg.rows(0), wantState)
			}
		}
	}
}

// Task retry in one picture: checkpoint, a merge that dies after mutating
// the state, Restore, and a replay of the very same batch must land on the
// state an undisturbed merge produces — the abandoned slab space and the
// batch the first attempt read must not leak into it. The dying attempt
// also merges enough new groups to double the partition's table, so the
// restore truncates a table that grew past the checkpoint.
func TestRestoreThenReplayIdenticalState(t *testing.T) {
	grow := make([]types.Row, 64)
	for i := range grow {
		grow[i] = types.Row{types.Int(int64(100 + i)), types.Int(1)}
	}
	for _, immutable := range []bool{false, true} {
		undisturbed, retried := mergeTargets(immutable), mergeTargets(immutable)
		for i, tg := range retried {
			first := intRows([2]int64{1, 10}, [2]int64{2, 20})
			batch := intRows([2]int64{1, 4}, [2]int64{3, 7}, [2]int64{3, 5}, [2]int64{2, 20}, [2]int64{4, 1})
			undisturbed[i].merge(0, first)
			wantDelta := cloneDelta(undisturbed[i].merge(0, batch))

			tg.merge(0, first)
			restore := tg.checkpoint(0)
			attempt := cloneDelta(tg.merge(0, batch))
			tg.merge(0, grow)
			restore()
			if !sameRowSlices(tg.rows(0), first) {
				t.Errorf("%s immutable=%v: state after restore = %v, want %v", tg.name, immutable, tg.rows(0), first)
			}
			// The replay derives into the buffer the dying attempt's delta
			// and the grow merge's used, and must return what the attempt
			// did.
			delta := tg.merge(0, batch)
			if !sameDelta(delta, wantDelta) || !sameDelta(delta, attempt) {
				t.Errorf("%s immutable=%v: replayed delta = %v, want %v, the first attempt's %v", tg.name, immutable, delta, wantDelta, attempt)
			}
			if !sameRowSlices(tg.rows(0), undisturbed[i].rows(0)) {
				t.Errorf("%s immutable=%v: replayed state = %v, want %v", tg.name, immutable, tg.rows(0), undisturbed[i].rows(0))
			}
		}
	}
}

func cloneDelta(d Delta) Delta {
	return Delta{Rows: types.CloneRows(d.Rows), Incs: slices.Clone(d.Incs), News: slices.Clone(d.News)}
}

func sameDelta(a, b Delta) bool {
	return sameRowSlices(a.Rows, b.Rows) && slices.EqualFunc(a.Incs, b.Incs, types.Value.Equal) && slices.Equal(a.News, b.News)
}

// An aggregate view's delta lives in its partition's delta buffer until the
// next Merge, and nothing the caller does to it reaches further: scribbling
// over the delta's spare capacity and over its rows' slice headers after
// every merge leaves the next merge's delta and the partition's rows as an
// undisturbed state has them. (A set view's delta is a capped tail of the
// partition's rows themselves, so its headers are the state's: read-only.)
func TestAggDeltaScribbleLeavesStateIntact(t *testing.T) {
	batches := [][]types.Row{
		intRows([2]int64{1, 10}, [2]int64{2, 20}),
		intRows([2]int64{1, 4}, [2]int64{3, 7}, [2]int64{3, 5}, [2]int64{2, 20}, [2]int64{4, 1}),
		intRows([2]int64{5, 9}),
		intRows([2]int64{1, 2}, [2]int64{4, 3}, [2]int64{6, 1}, [2]int64{2, 1}),
	}
	junk := types.Row{types.Int(-7), types.Int(-7)}
	for _, immutable := range []bool{false, true} {
		for _, kind := range []types.AggKind{types.AggMin, types.AggSum} {
			c := New(Config{Workers: 1, Partitions: 1, ImmutableState: immutable})
			clean, scribbled := c.NewState([]int{0}, 1, kind), c.NewState([]int{0}, 1, kind)
			for i, b := range batches {
				want := cloneDelta(clean.Merge(0, b))
				d := scribbled.Merge(0, b)
				if !sameDelta(d, want) || !sameRowSlices(scribbled.Rows(0), clean.Rows(0)) {
					t.Errorf("%s immutable=%v merge %d: delta %v and rows %v, want %v and %v", kind, immutable, i, d, scribbled.Rows(0), want, clean.Rows(0))
				}
				for j := range d.Rows[:cap(d.Rows)] {
					d.Rows[:cap(d.Rows)][j] = junk
				}
				for j := range d.Incs[:cap(d.Incs)] {
					d.Incs[:cap(d.Incs)][j] = types.Int(-7)
				}
				for j := range d.News[:cap(d.News)] {
					d.News[:cap(d.News)][j] = !d.News[:cap(d.News)][j]
				}
			}
		}
	}
}
