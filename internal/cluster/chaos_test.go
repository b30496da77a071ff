package cluster

import (
	"sync/atomic"
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

func chaosTestCluster(chaos ChaosConfig) *QueryContext {
	return New(Config{Workers: 4, Partitions: 4,
		SequentialStages: true, Chaos: chaos}).NewQuery(nil)
}

// A disabled injector must be free: the only cost is the nil check RunStage
// and FetchTarget already pay, and zero allocations on the stage path —
// placement, the per-worker queue and its stopwatch included.
func TestDisabledInjectorZeroAllocs(t *testing.T) {
	c := New(Config{Workers: 4, Partitions: 4, SequentialStages: true}).NewQuery(nil)
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{Part: i, Preferred: i, Run: func(int) {}}
	}
	if c.ChaosEnabled() {
		t.Fatal("zero ChaosConfig must not enable the injector")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.RunStage("noop", tasks)
		c.ChaosPostMerge(0)
	})
	if allocs != 0 {
		t.Errorf("disabled injector allocates %.1f per stage, want 0", allocs)
	}
}

// A parallel stage allocates no more than one object per active worker: the
// closure its goroutine's spawn needs. The stage's name, span flag, chaos
// scope and barrier live on the QueryContext, and the queues are warm, so
// nothing else escapes. Four workers with a task each cost nine allocations
// per stage when every worker took two closures and the WaitGroup escaped.
func TestParallelRunStageAllocBudget(t *testing.T) {
	const workers = 4
	c := New(Config{Workers: workers, Partitions: workers}).NewQuery(nil)
	tasks := make([]Task, workers)
	for i := range tasks {
		tasks[i] = Task{Part: i, Preferred: i, Run: func(int) {}}
	}
	c.RunStage("warm", tasks) // size the queues
	allocs := testing.AllocsPerRun(100, func() { c.RunStage("noop", tasks) })
	if allocs > workers {
		t.Errorf("a parallel %d-worker stage allocates %.1f, budget %d", workers, allocs, workers)
	}
}

// An enabled injector whose schedule never fires must also stay off the
// allocator on the per-task decision path: rolling the fault dice, looking
// up the worker's chaos context, and passing a fetch point are the costs
// every chaos-covered task pays per attempt, fault or no fault.
func TestEnabledInjectorNoFaultZeroAllocs(t *testing.T) {
	c := chaosTestCluster(ChaosConfig{Schedule: []ChaosEvent{
		{Stage: "unreached", Occurrence: 0, Part: 0, Attempt: 0, Kind: FaultTaskStart},
	}})
	if !c.ChaosEnabled() {
		t.Fatal("scheduled config must enable the injector")
	}
	sc := c.chaos.beginStage("steady", 0)
	allocs := testing.AllocsPerRun(100, func() {
		if sc.roll(0, 0, FaultTaskStart) {
			t.Fatal("unscheduled fault fired")
		}
		if c.chaos.taskCtx(-1) != nil {
			t.Fatal("driver-side worker has a chaos task context")
		}
		c.chaos.fetchPoint(-1)
	})
	if allocs != 0 {
		t.Errorf("enabled-injector decision path allocates %.1f per run, want 0", allocs)
	}
}

// A scheduled fault kills exactly the pinned attempt: the task reruns, the
// rollback fires between attempts, and counters record one retry.
func TestChaosScheduledFaultRetriesAndRollsBack(t *testing.T) {
	c := chaosTestCluster(ChaosConfig{Schedule: []ChaosEvent{
		{Stage: "s", Occurrence: 0, Part: 2, Attempt: 0, Kind: FaultTaskStart},
	}})
	attempts := make([]int, 4)
	rollbacks := make([]int, 4)
	tasks := make([]Task, 4)
	for i := range tasks {
		p := i
		tasks[i] = Task{Part: p, Preferred: p,
			Run:      func(int) { attempts[p]++ },
			Rollback: func() { rollbacks[p]++ },
		}
	}
	c.RunStage("s", tasks)
	for p, n := range attempts {
		want := 1
		if p == 2 {
			want = 1 // attempt 0 died before Run; only the replay reaches the body
		}
		if n != want {
			t.Errorf("part %d ran %d times, want %d", p, n, want)
		}
	}
	if rollbacks[2] != 1 {
		t.Errorf("part 2 rolled back %d times, want 1", rollbacks[2])
	}
	for p, n := range rollbacks {
		if p != 2 && n != 0 {
			t.Errorf("part %d rolled back %d times, want 0", p, n)
		}
	}
	if s := c.Metrics.Snapshot(); s.TaskRetries != 1 {
		t.Errorf("TaskRetries = %d, want 1: %s", s.TaskRetries, s)
	}

	// A second run of the same stage name is occurrence 1 — no match.
	before := c.Metrics.Snapshot()
	c.RunStage("s", tasks)
	if s := c.Metrics.Snapshot().Sub(before); s.TaskRetries != 0 {
		t.Errorf("occurrence-pinned event refired: %s", s)
	}
}

// Rate 1.0 makes every rollable point fire, so the retry loop must bottom
// out at the attempt bound: the injector never kills the final attempt.
func TestChaosFullRateIsBoundedByMaxAttempts(t *testing.T) {
	const maxAttempts = 3
	c := chaosTestCluster(ChaosConfig{Rate: 1.0, MaxAttempts: maxAttempts})
	var ran atomic.Int64
	tasks := []Task{{Part: 0, Preferred: 0, Run: func(int) { ran.Add(1) }}}
	c.RunStage("s", tasks)
	if ran.Load() != 1 {
		t.Errorf("task body ran %d times, want 1 (earlier attempts die pre-body)", ran.Load())
	}
	if s := c.Metrics.Snapshot(); s.TaskRetries != maxAttempts-1 {
		t.Errorf("TaskRetries = %d, want %d: %s", s.TaskRetries, maxAttempts-1, s)
	}
}

// Same seed, same stages → same fault decisions, run after run.
func TestChaosRateScheduleIsDeterministic(t *testing.T) {
	run := func() int64 {
		c := chaosTestCluster(ChaosConfig{Seed: 42, Rate: 0.3})
		tasks := make([]Task, 4)
		for i := range tasks {
			tasks[i] = Task{Part: i, Preferred: i, Run: func(int) {}}
		}
		for s := 0; s < 20; s++ {
			c.RunStage("s", tasks)
		}
		return c.Metrics.TaskRetries.Load()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different schedules: %d vs %d retries", a, b)
	}
	if a == 0 {
		t.Error("rate 0.3 over 80 tasks never fired")
	}
	c := chaosTestCluster(ChaosConfig{Seed: 43, Rate: 0.3})
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{Part: i, Preferred: i, Run: func(int) {}}
	}
	for s := 0; s < 20; s++ {
		c.RunStage("s", tasks)
	}
	if c.Metrics.TaskRetries.Load() == a {
		t.Log("different seed produced the same retry count (possible, but suspicious)")
	}
}

// Worker loss invalidates the worker's broadcast cache blocks; the retried
// attempt rebuilds its table from the retained wire, paying the broadcast
// bytes again.
func TestChaosWorkerLossRebuildsBroadcast(t *testing.T) {
	c := chaosTestCluster(ChaosConfig{Schedule: []ChaosEvent{
		{Stage: "probe", Occurrence: 0, Part: 0, Attempt: 0, Kind: FaultWorkerLoss},
	}})
	rows := intRows([2]int64{1, 10}, [2]int64{2, 20}, [2]int64{3, 30})
	b := c.Broadcast(rows, pairSchema(), []int{0})
	baseline := c.Metrics.BroadcastBytes.Load()

	var probed atomic.Int64
	c.RunStage("probe", []Task{{Part: 0, Preferred: 0, Run: func(w int) {
		tbl := b.Table(w)
		if tbl == nil {
			t.Error("broadcast table not rebuilt after worker loss")
			return
		}
		probed.Add(int64(len(tbl.ProbeRow(types.Row{types.Int(2)}, []int{0}))))
	}}})
	if probed.Load() != 1 {
		t.Errorf("probe found %d rows, want 1", probed.Load())
	}
	s := c.Metrics.Snapshot()
	if s.TaskRetries != 1 {
		t.Errorf("worker loss did not kill the attempt: %s", s)
	}
	if s.BroadcastBytes <= baseline {
		t.Errorf("rebuild did not pay broadcast bytes (%d <= %d)", s.BroadcastBytes, baseline)
	}
}

// A fetch fault replays the whole shuffle read: the retained buckets decode
// to the same rows and the replay is counted.
func TestChaosShuffleFetchReplay(t *testing.T) {
	c := chaosTestCluster(ChaosConfig{Schedule: []ChaosEvent{
		{Stage: "reduce", Occurrence: 0, Part: 0, Attempt: 0, Kind: FaultFetch},
	}})
	sh := c.NewShuffle(1)
	in := intRows([2]int64{1, 2}, [2]int64{3, 4}, [2]int64{5, 6})
	c.RunStage("load", []Task{{Part: 0, Preferred: 0, Run: func(w int) {
		sh.Add([][]types.Row{in}, w)
	}}})

	var got atomic.Int64
	c.RunStage("reduce", []Task{{Part: 0, Preferred: 0, Run: func(w int) {
		got.Store(int64(len(sh.FetchTarget(0, w))))
	}}})
	if got.Load() != int64(len(in)) {
		t.Errorf("fetched %d rows after replay, want %d", got.Load(), len(in))
	}
	s := c.Metrics.Snapshot()
	if s.TaskRetries != 1 {
		t.Errorf("fetch fault did not kill the attempt: %s", s)
	}
	if s.RowsReplayed != int64(len(in)) {
		t.Errorf("RowsReplayed = %d, want %d", s.RowsReplayed, len(in))
	}
}

// Non-fault panics must pass straight through the retry loop.
func TestChaosRealPanicPropagates(t *testing.T) {
	c := chaosTestCluster(ChaosConfig{Rate: 0.5})
	defer func() {
		if recover() == nil {
			t.Error("real panic swallowed by the chaos retry loop")
		}
	}()
	c.RunStage("s", []Task{{Part: 0, Preferred: 0, Run: func(int) {
		panic("actual bug")
	}}})
}
