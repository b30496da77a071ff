package cluster

import (
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

func TestSetRDDMergeDedups(t *testing.T) {
	for _, immutable := range []bool{false, true} {
		c := New(Config{Workers: 2, Partitions: 2, StageOverheadOps: -1, ImmutableState: immutable})
		s := c.NewSetRDD(pairSchema())
		d1 := s.Merge(0, intRows([2]int64{1, 2}, [2]int64{1, 2}, [2]int64{3, 4}))
		if len(d1) != 2 {
			t.Errorf("immutable=%v: first merge delta = %d, want 2", immutable, len(d1))
		}
		d2 := s.Merge(0, intRows([2]int64{1, 2}, [2]int64{5, 6}))
		if len(d2) != 1 || !d2[0].Equal(types.Row{types.Int(5), types.Int(6)}) {
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

func aggRow(k int64, v float64) types.Row {
	return types.Row{types.Int(k), types.Float(v)}
}

func TestAggRDDMinMerge(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewAggRDD(types.NewSchema(types.Col("Dst", types.KindInt), types.Col("Cost", types.KindFloat)),
		[]int{0}, 1, types.AggMin)

	d := a.Merge(0, []types.Row{aggRow(1, 5), aggRow(2, 7)})
	if len(d.Rows) != 2 || d.Incs != nil {
		t.Fatalf("fresh groups delta = %v", d)
	}
	// Improvement produces a delta; a worse value does not.
	d = a.Merge(0, []types.Row{aggRow(1, 3), aggRow(2, 9)})
	if len(d.Rows) != 1 || !d.Rows[0].Equal(aggRow(1, 3)) {
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
	a := c.NewAggRDD(pairSchemaFloat(), []int{0}, 1, types.AggMax)
	a.Merge(0, []types.Row{aggRow(1, 5)})
	if d := a.Merge(0, []types.Row{aggRow(1, 4)}); !d.Empty() {
		t.Error("smaller value should not improve max")
	}
	if d := a.Merge(0, []types.Row{aggRow(1, 6)}); len(d.Rows) != 1 {
		t.Error("larger value should improve max")
	}
}

func pairSchemaFloat() types.Schema {
	return types.NewSchema(types.Col("K", types.KindInt), types.Col("V", types.KindFloat))
}

func TestAggRDDSumCarriesIncrements(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewAggRDD(pairSchemaFloat(), []int{0}, 1, types.AggSum)

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
	a := c.NewAggRDD(pairSchemaFloat(), []int{0}, 1, types.AggSum)
	a.Merge(0, []types.Row{aggRow(1, 1), aggRow(1, 2), aggRow(1, 3)})
	row, ok := a.Lookup(0, aggRow(1, 0))
	if !ok || !row[1].Equal(types.Float(6)) {
		t.Errorf("batched sum = %v, want 6", row)
	}
}

func TestAggRDDImmutableStateCopies(t *testing.T) {
	c := New(Config{Workers: 2, Partitions: 2, StageOverheadOps: -1, ImmutableState: true})
	a := c.NewAggRDD(pairSchemaFloat(), []int{0}, 1, types.AggMin)
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
	a := c.NewAggRDD(pairSchemaFloat(), []int{0}, 1, types.AggMin)
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
	out := types.PartialAggregate(rows, []int{0}, 1, types.AggMin)
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
	out = types.PartialAggregate(rows, []int{0}, 1, types.AggSum)
	vals = map[int64]float64{}
	for _, r := range out {
		vals[r[0].AsInt()] = r[1].AsFloat()
	}
	if vals[1] != 17 || vals[2] != 7 {
		t.Errorf("partial sum = %v", vals)
	}
	// Input rows must not be mutated (they may alias cached state).
	if !rows[0].Equal(aggRow(1, 5)) {
		t.Error("PartialAggregate mutated its input")
	}
}

func TestBroadcastBothModes(t *testing.T) {
	rows := intRows([2]int64{1, 10}, [2]int64{1, 11}, [2]int64{2, 20})
	var sizes [2]int64
	for i, compress := range []bool{false, true} {
		c := New(Config{Workers: 3, Partitions: 3, StageOverheadOps: -1, CompressBroadcast: compress}).NewQuery(nil)
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
	s := c.NewSetRDD(pairSchema())
	s.Merge(0, intRows([2]int64{1, 2}))
	cp := s.Checkpoint(0)
	s.Merge(0, intRows([2]int64{3, 4}, [2]int64{5, 6}))
	s.Restore(cp)
	if s.Len() != 1 || s.Contains(0, types.Row{types.Int(3), types.Int(4)}) {
		t.Fatalf("restore failed: len=%d", s.Len())
	}
	// Replaying the same merge after restore yields the same delta.
	d := s.Merge(0, intRows([2]int64{3, 4}, [2]int64{5, 6}))
	if len(d) != 2 || s.Len() != 3 {
		t.Errorf("replay delta = %d, len = %d", len(d), s.Len())
	}
}

func TestAggRDDCheckpointRestoreAdditive(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewAggRDD(pairSchemaFloat(), []int{0}, 1, types.AggSum)
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
	a := c.NewAggRDD(pairSchemaFloat(), []int{0}, 1, types.AggMin)
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
// new ones, and leave the key index consistent for the replay.
func TestAggRDDCheckpointRestoreMixedMerge(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewAggRDD(pairSchemaFloat(), []int{0}, 1, types.AggMin)
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
	s := c.NewSetRDD(pairSchema())
	scp := s.Checkpoint(1)
	s.Merge(1, intRows([2]int64{7, 8}))
	s.Restore(scp)
	if s.Len() != 0 || len(s.Rows(1)) != 0 {
		t.Errorf("SetRDD empty-partition restore left %d rows", s.Len())
	}
	if d := s.Merge(1, intRows([2]int64{7, 8})); len(d) != 1 {
		t.Errorf("replay after empty restore delta = %d, want 1", len(d))
	}

	a := c.NewAggRDD(pairSchemaFloat(), []int{0}, 1, types.AggSum)
	acp := a.Checkpoint(1)
	a.Merge(1, []types.Row{aggRow(1, 5)})
	a.Restore(acp)
	if a.Len() != 0 {
		t.Errorf("AggRDD empty-partition restore left %d groups", a.Len())
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
	s := c.NewSetRDD(pairSchema())
	s.Merge(0, intRows([2]int64{1, 2}))
	scp := s.Checkpoint(0)
	s.Merge(0, intRows([2]int64{3, 4}))
	s.Restore(scp)
	s.Restore(scp)
	if s.Len() != 1 || !s.Contains(0, types.Row{types.Int(1), types.Int(2)}) {
		t.Errorf("double restore corrupted SetRDD: len=%d", s.Len())
	}

	a := c.NewAggRDD(pairSchemaFloat(), []int{0}, 1, types.AggSum)
	a.Merge(0, []types.Row{aggRow(1, 10)})
	acp := a.Checkpoint(0)
	a.Merge(0, []types.Row{aggRow(1, 5), aggRow(2, 1)})
	a.Restore(acp)
	a.Merge(0, []types.Row{aggRow(1, 2)}) // second attempt gets partway…
	a.Restore(acp)                        // …and dies too
	row, ok := a.Lookup(0, aggRow(1, 0))
	if !ok || !row[1].Equal(types.Float(10)) || a.Len() != 1 {
		t.Errorf("double restore corrupted AggRDD: %v len=%d", row, a.Len())
	}
}

// Regression for the replay double-count bug: a batch with two contributions
// to the same fresh group updates the stored row's value column in place. If
// Merge adopts the caller's row for the new group instead of cloning it, that
// in-place update corrupts the input batch — and a restore-then-replay of the
// same slice (exactly what task retry does) double-counts.
func TestAggRDDRestoreThenReplaySameSlice(t *testing.T) {
	c := newTestCluster(2, 2)
	a := c.NewAggRDD(pairSchemaFloat(), []int{0}, 1, types.AggSum)
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

// mergeTarget runs one ownership scenario against either RDD kind.
type mergeTarget struct {
	name  string
	merge func(part int, rows []types.Row) []types.Row
	rows  func(part int) []types.Row
	// checkpoint snapshots the partition and returns its restore.
	checkpoint func(part int) func()
}

func mergeTargets(immutable bool) []mergeTarget {
	c := New(Config{Workers: 2, Partitions: 2, StageOverheadOps: -1, ImmutableState: immutable})
	s := c.NewSetRDD(pairSchema())
	targets := []mergeTarget{{
		name: "set", merge: s.Merge, rows: s.Rows,
		checkpoint: func(p int) func() { cp := s.Checkpoint(p); return func() { s.Restore(cp) } },
	}}
	for _, kind := range []types.AggKind{types.AggMin, types.AggSum} {
		a := c.NewAggRDD(pairSchema(), []int{0}, 1, kind)
		targets = append(targets, mergeTarget{
			name:  "agg-" + kind.String(),
			merge: func(p int, rows []types.Row) []types.Row { return a.Merge(p, rows).Rows },
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
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// The ownership contract of both RDDs: Merge copies what it keeps, so the
// caller may overwrite every incoming row the moment Merge returns (the
// projector's scratch does exactly that on the partition's next step)
// without touching the state or the delta it was handed.
func TestMergeLeavesIncomingCallerOwned(t *testing.T) {
	for _, immutable := range []bool{false, true} {
		for _, tg := range mergeTargets(immutable) {
			tg.merge(0, intRows([2]int64{1, 10}))
			// A duplicate, an update of a stored group, two rows of one
			// fresh group, and a plain new row.
			batch := intRows([2]int64{1, 10}, [2]int64{1, 4}, [2]int64{2, 7}, [2]int64{2, 5}, [2]int64{3, 9})
			delta := tg.merge(0, batch)
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
// batch the first attempt read must not leak into it.
func TestRestoreThenReplayIdenticalState(t *testing.T) {
	for _, immutable := range []bool{false, true} {
		undisturbed, retried := mergeTargets(immutable), mergeTargets(immutable)
		for i, tg := range retried {
			first := intRows([2]int64{1, 10}, [2]int64{2, 20})
			batch := intRows([2]int64{1, 4}, [2]int64{3, 7}, [2]int64{3, 5}, [2]int64{2, 20}, [2]int64{4, 1})
			undisturbed[i].merge(0, first)
			wantDelta := types.CloneRows(undisturbed[i].merge(0, batch))

			tg.merge(0, first)
			restore := tg.checkpoint(0)
			tg.merge(0, batch)
			restore()
			if !sameRowSlices(tg.rows(0), first) {
				t.Errorf("%s immutable=%v: state after restore = %v, want %v", tg.name, immutable, tg.rows(0), first)
			}
			delta := tg.merge(0, batch)
			if !sameRowSlices(delta, wantDelta) {
				t.Errorf("%s immutable=%v: replayed delta = %v, want %v", tg.name, immutable, delta, wantDelta)
			}
			if !sameRowSlices(tg.rows(0), undisturbed[i].rows(0)) {
				t.Errorf("%s immutable=%v: replayed state = %v, want %v", tg.name, immutable, tg.rows(0), undisturbed[i].rows(0))
			}
		}
	}
}
