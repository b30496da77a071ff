package cluster

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/types"
)

func intRows(pairs ...[2]int64) []types.Row {
	rows := make([]types.Row, len(pairs))
	for i, p := range pairs {
		rows[i] = types.Row{types.Int(p[0]), types.Int(p[1])}
	}
	return rows
}

func pairSchema() types.Schema {
	return types.NewSchema(types.Col("A", types.KindInt), types.Col("B", types.KindInt))
}

func newTestCluster(workers, parts int) *Cluster {
	return New(Config{Workers: workers, Partitions: parts})
}

func newTestQuery(workers, parts int) *QueryContext {
	return newTestCluster(workers, parts).NewQuery(nil)
}

func TestConfigDefaults(t *testing.T) {
	c := New(Config{})
	if c.cfg.Workers <= 0 || c.cfg.Partitions != c.cfg.Workers {
		t.Errorf("defaults: workers=%d partitions=%d", c.cfg.Workers, c.cfg.Partitions)
	}
	if got := c.Config().TaskOverheadNanos; got != 37_000 {
		t.Errorf("default task overhead = %dns, want 37000", got)
	}
}

func TestRunStageExecutesEveryTask(t *testing.T) {
	q := newTestQuery(4, 8)
	var ran atomic.Int64
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Part: i, Preferred: -1, Run: func(w int) { ran.Add(1) }}
	}
	q.RunStage("t", tasks)
	if ran.Load() != 8 {
		t.Errorf("ran %d tasks, want 8", ran.Load())
	}
	snap := q.Metrics.Snapshot()
	if snap.StagesRun != 1 || snap.TasksRun != 8 {
		t.Errorf("metrics: %v", snap)
	}
	// Finish folds the per-query counters into the cluster totals, once.
	q.Finish()
	q.Finish()
	if total := q.c.Metrics.Snapshot(); total.StagesRun != 1 || total.TasksRun != 8 {
		t.Errorf("folded totals: %v", total)
	}
}

func TestPartitionAwarePlacement(t *testing.T) {
	c := newTestQuery(4, 4)
	got := make([]int, 4)
	tasks := make([]Task, 4)
	for i := range tasks {
		part := i
		pref := (i + 1) % 4
		tasks[i] = Task{Part: part, Preferred: pref, Run: func(w int) { got[part] = w }}
	}
	c.RunStage("t", tasks)
	for i := range got {
		if got[i] != (i+1)%4 {
			t.Errorf("task %d ran on %d, want preferred %d", i, got[i], (i+1)%4)
		}
	}
}

func TestHybridPlacementRotates(t *testing.T) {
	c := New(Config{Workers: 4, Partitions: 4, Policy: PolicyHybrid}).NewQuery(nil)
	first := make([]int, 4)
	second := make([]int, 4)
	run := func(dst []int) {
		tasks := make([]Task, 4)
		for i := range tasks {
			part := i
			tasks[i] = Task{Part: part, Preferred: part, Run: func(w int) { dst[part] = w }}
		}
		c.RunStage("t", tasks)
	}
	run(first)
	run(second)
	same := 0
	for i := range first {
		if first[i] == second[i] {
			same++
		}
	}
	if same == 4 {
		t.Error("hybrid policy should not keep every task on the same worker across stages")
	}
}

func TestPartitionRouting(t *testing.T) {
	c := newTestCluster(2, 4)
	rel := relation.FromRows("r", pairSchema(), intRows([2]int64{1, 2}, [2]int64{1, 3}, [2]int64{2, 4}, [2]int64{5, 6}))
	p := c.Partition(rel, []int{0})
	if len(p.Parts) != 4 || p.Len() != 4 {
		t.Fatalf("partitions=%d len=%d", len(p.Parts), p.Len())
	}
	// Rows with the same key must land in the same partition.
	var partOf1 = -1
	for i, part := range p.Parts {
		for _, r := range part {
			if r[0].AsInt() == 1 {
				if partOf1 == -1 {
					partOf1 = i
				} else if partOf1 != i {
					t.Error("rows with key 1 split across partitions")
				}
			}
		}
	}
	// Placement must follow the key hash, as the shuffle routes rows.
	for i, part := range p.Parts {
		for _, r := range part {
			if want := int(types.HashRowKey(r, p.Key) % uint64(len(p.Parts))); want != i {
				t.Errorf("row %v placed in partition %d, its key hash routes it to %d", r, i, want)
			}
		}
	}
}

func TestRoundRobinPartition(t *testing.T) {
	c := newTestCluster(2, 3)
	rel := relation.FromRows("r", pairSchema(), intRows([2]int64{1, 1}, [2]int64{2, 2}, [2]int64{3, 3}))
	p := c.Partition(rel, nil)
	for i := range p.Parts {
		if len(p.Parts[i]) != 1 {
			t.Errorf("round robin partition %d has %d rows", i, len(p.Parts[i]))
		}
	}
}

func TestCollectPaysTransfer(t *testing.T) {
	c := newTestQuery(2, 2)
	rel := relation.FromRows("r", pairSchema(), intRows([2]int64{1, 2}, [2]int64{3, 4}))
	p := c.c.Partition(rel, []int{0})
	before := c.Metrics.Snapshot()
	got := c.Collect(p, "out")
	after := c.Metrics.Snapshot()
	if !sameBag(got, rel) {
		t.Errorf("collect mismatch: %v vs %v", got, rel)
	}
	if after.RemoteFetchBytes <= before.RemoteFetchBytes {
		t.Error("collect should count remote fetch bytes")
	}
}

func TestFetchLocalIsFree(t *testing.T) {
	c := newTestQuery(2, 2)
	rows := intRows([2]int64{1, 2})
	before := c.Metrics.Snapshot()
	got := c.Fetch(rows, 1, 1)
	if &got[0][0] != &rows[0][0] {
		t.Error("local fetch should return the same backing storage")
	}
	if c.Metrics.Snapshot().RemoteFetchBytes != before.RemoteFetchBytes {
		t.Error("local fetch must not count remote bytes")
	}
	got = c.Fetch(rows, 0, 1)
	if len(got) != 1 || !slices.EqualFunc(got[0], rows[0], types.Value.Equal) {
		t.Error("remote fetch should round-trip the rows")
	}
	if c.Metrics.Snapshot().RemoteFetchBytes == 0 {
		t.Error("remote fetch must count bytes")
	}
}

func TestExchangeRepartitions(t *testing.T) {
	c := newTestQuery(3, 3)
	rel := relation.New("r", pairSchema())
	for i := int64(0); i < 100; i++ {
		rel.Append(types.Row{types.Int(i), types.Int(i % 7)})
	}
	in := c.c.Partition(rel, []int{0})
	out := exchange(c, "x", in, []int{1})
	if out.Len() != 100 {
		t.Fatalf("exchange lost rows: %d", out.Len())
	}
	// All rows with equal B must now share a partition.
	seen := map[int64]int{}
	for i, part := range out.Parts {
		for _, r := range part {
			b := r[1].AsInt()
			if p, ok := seen[b]; ok && p != i {
				t.Errorf("key %d split across partitions %d and %d", b, p, i)
			}
			seen[b] = i
		}
	}
	if got := c.Collect(out, "c"); !sameBag(got, rel) {
		t.Error("exchange changed the bag of rows")
	}
}

func TestMetricsSnapshotSubAndReset(t *testing.T) {
	c := newTestCluster(2, 2)
	c.Metrics.ShuffleBytes.Add(10)
	a := c.Metrics.Snapshot()
	c.Metrics.ShuffleBytes.Add(5)
	d := c.Metrics.Snapshot().Sub(a)
	if d.ShuffleBytes != 5 {
		t.Errorf("Sub: %d", d.ShuffleBytes)
	}
	if s := a.String(); s == "" {
		t.Error("Snapshot.String should render")
	}
}

func TestParallelStagesExecuteAllTasks(t *testing.T) {
	c := newTestQuery(4, 8) // default mode: parallel
	var ran atomic.Int64
	tasks := make([]Task, 16)
	for i := range tasks {
		tasks[i] = Task{Part: i, Preferred: -1, Run: func(w int) { ran.Add(1) }}
	}
	c.RunStage("p", tasks)
	if ran.Load() != 16 {
		t.Errorf("ran %d tasks, want 16", ran.Load())
	}
	if c.Metrics.Snapshot().SimNanos == 0 {
		t.Error("parallel mode should record max per-worker busy time as sim time")
	}
}

// Two queries sharing one cluster run concurrently without interfering:
// stage sequencing and counters are per-query, and Finish folds both into
// the shared totals.
func TestConcurrentQueriesShareCluster(t *testing.T) {
	c := newTestCluster(4, 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := c.NewQuery(nil)
			defer q.Finish()
			var ran atomic.Int64
			tasks := make([]Task, 4)
			for j := range tasks {
				tasks[j] = Task{Part: j, Preferred: -1, Run: func(w int) { ran.Add(1) }}
			}
			q.RunStage("t", tasks)
			if ran.Load() != 4 {
				t.Errorf("ran %d tasks, want 4", ran.Load())
			}
			if s := q.Metrics.Snapshot(); s.StagesRun != 1 || s.TasksRun != 4 {
				t.Errorf("per-query metrics polluted by sibling query: %v", s)
			}
		}()
	}
	wg.Wait()
	if s := c.Metrics.Snapshot(); s.StagesRun != 8 || s.TasksRun != 32 {
		t.Errorf("folded totals: %v", s)
	}
}

func TestParallelExchangeMatchesSequential(t *testing.T) {
	rel := relation.New("r", pairSchema())
	for i := int64(0); i < 500; i++ {
		rel.Append(types.Row{types.Int(i), types.Int(i % 13)})
	}
	seq := New(Config{Workers: 4, Partitions: 8, SequentialStages: true}).NewQuery(nil)
	par := newTestQuery(4, 8)
	a := seq.Collect(exchange(seq, "x", seq.c.Partition(rel, []int{0}), []int{1}), "a")
	b := par.Collect(exchange(par, "x", par.c.Partition(rel, []int{0}), []int{1}), "b")
	if !sameBag(a, b) {
		t.Error("parallel exchange changed the bag of rows")
	}
}

// exchange repartitions input onto key columns through a shuffle: a map
// stage routes each row by hash of the key, and a reduce stage materializes
// the target partitions, each owned by the worker that ran its reduce task.
func exchange(c *QueryContext, name string, in *PartitionedRelation, key []int) *PartitionedRelation {
	targets := c.cfg.Partitions
	sh := c.NewShuffle(targets)

	mapTasks := make([]Task, len(in.Parts))
	for i := range mapTasks {
		part := i
		mapTasks[i] = Task{
			Part:      part,
			Preferred: in.Owner[part],
			Run: func(w int) {
				rows := c.Fetch(in.Parts[part], in.Owner[part], w)
				out := make([][]types.Row, targets)
				for _, row := range rows {
					t := int(types.HashRowKey(row, key) % uint64(targets))
					out[t] = append(out[t], row)
				}
				sh.Add(out, w)
			},
		}
	}
	c.RunStage(name+".map", mapTasks)

	out := c.c.PartitionN(relation.New("out", in.Schema), key, targets)
	redTasks := make([]Task, targets)
	for i := range redTasks {
		part := i
		redTasks[i] = Task{
			Part:      part,
			Preferred: -1,
			Run: func(w int) {
				out.Parts[part] = sh.FetchTarget(part, w)
				out.Owner[part] = w
			},
		}
	}
	c.RunStage(name+".reduce", redTasks)
	return out
}

// sameBag reports whether a and b hold the same multiset of rows.
func sameBag(a, b *relation.Relation) bool {
	return slices.EqualFunc(a.Clone().Sort().Rows, b.Clone().Sort().Rows, func(x, y types.Row) bool { return x.Compare(y) == 0 })
}
