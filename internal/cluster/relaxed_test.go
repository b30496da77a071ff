package cluster

import (
	"sync"
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

// relaxedChainConfig builds a small cluster for router tests.
func relaxedTestQuery(workers, parts int, sequential bool) *QueryContext {
	return New(Config{
		Workers:          workers,
		Partitions:       parts,
		SequentialStages: sequential,
		StageOverheadOps: 1,
	}).NewQuery(nil)
}

// runTokenChain routes decrementing tokens around the partition ring: a row
// [v] at partition p emits [v-1] to partition (p+1)%parts until v reaches
// zero. Every delivered row is tallied, so lost or duplicated deliveries
// are detectable, and the chain length forces multi-round clocks.
func runTokenChain(t *testing.T, q *QueryContext, parts, hops, staleness int) (RelaxedStats, int64) {
	t.Helper()
	var mu sync.Mutex
	var delivered int64
	seed := make([][]types.Row, parts)
	seed[0] = []types.Row{{types.Int(int64(hops))}}
	stats := q.RunRelaxed(RelaxedOptions{
		Name:      "test.chain",
		Parts:     parts,
		Owner:     func(p int) int { return p % q.Workers() },
		Staleness: staleness,
		Process: func(part, worker int, rows []types.Row, round int64, stale int) [][]types.Row {
			mu.Lock()
			delivered += int64(len(rows))
			mu.Unlock()
			out := make([][]types.Row, parts)
			for _, r := range rows {
				v := r[0].I
				if v > 0 {
					out[(part+1)%parts] = append(out[(part+1)%parts], types.Row{types.Int(v - 1)})
				}
			}
			return out
		},
	}, seed)
	return stats, delivered
}

func TestRelaxedQuiescence(t *testing.T) {
	for _, tc := range []struct {
		name       string
		sequential bool
		staleness  int
	}{
		{"parallel-async", false, -1},
		{"parallel-ssp0", false, 0},
		{"parallel-ssp2", false, 2},
		{"sequential-async", true, -1},
		{"sequential-ssp1", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const parts, hops = 4, 17
			q := relaxedTestQuery(4, parts, tc.sequential)
			stats, delivered := runTokenChain(t, q, parts, hops, tc.staleness)
			// The chain visits hops+1 partitions (seed + hops forwards).
			if delivered != hops+1 {
				t.Errorf("delivered %d rows, want %d", delivered, hops+1)
			}
			if stats.Batches != hops+1 {
				t.Errorf("Batches = %d, want %d", stats.Batches, hops+1)
			}
			// Each ring slot is visited ⌈(hops+1)/parts⌉ times at most.
			wantClock := int64((hops + parts) / parts)
			if stats.MaxClock != wantClock {
				t.Errorf("MaxClock = %d, want %d", stats.MaxClock, wantClock)
			}
			if got := q.Metrics.TasksRun.Load(); got != stats.Batches {
				t.Errorf("TasksRun = %d, want %d", got, stats.Batches)
			}
			if got := q.Metrics.StagesRun.Load(); got != 1 {
				t.Errorf("StagesRun = %d, want 1", got)
			}
		})
	}
}

// TestRelaxedStalenessGateBound pins the SSP invariant: under a staleness
// bound k no partition is ever scheduled more than k rounds ahead of the
// slowest partition that still has work.
func TestRelaxedStalenessGateBound(t *testing.T) {
	for _, k := range []int{0, 1, 4} {
		const parts, hops = 4, 40
		q := relaxedTestQuery(4, parts, false)
		stats, _ := runTokenChain(t, q, parts, hops, k)
		if stats.MaxClockLead > int64(k) {
			t.Errorf("k=%d: MaxClockLead = %d exceeds the bound", k, stats.MaxClockLead)
		}
	}
}

// TestRelaxedStaleReadAccounting drives takeLocked directly: a batch
// stamped more than one round before the consuming clock is a stale read.
func TestRelaxedStaleReadAccounting(t *testing.T) {
	q := relaxedTestQuery(2, 2, true)
	rt := &relaxedRouter{
		q:        q,
		opt:      RelaxedOptions{Parts: 2, Owner: func(p int) int { return p }},
		inbox:    make([][]relaxedBatch, 2),
		clock:    []int64{5, 0},
		inflight: make([]bool, 2),
	}
	rt.cond = sync.NewCond(&rt.mu)
	rt.mu.Lock()
	// Fresh: produced at round 4, consumed at round 5.
	rt.inbox[0] = append(rt.inbox[0], relaxedBatch{rows: make([]types.Row, 3), n: 3, stamp: 4})
	// Stale: produced at round 1, consumed at round 5.
	rt.inbox[0] = append(rt.inbox[0], relaxedBatch{rows: make([]types.Row, 2), n: 2, stamp: 1})
	rt.outstanding = 2
	batches, round, stale := rt.takeLocked(0)
	rt.mu.Unlock()
	if round != 5 || len(batches) != 2 || stale != 2 {
		t.Fatalf("takeLocked: round=%d batches=%d stale=%d", round, len(batches), stale)
	}
	if got := q.Metrics.StaleReads.Load(); got != 2 {
		t.Errorf("StaleReads = %d, want 2 (only the stamp-1 batch rows)", got)
	}
}

// TestRelaxedSameWorkerHandOverOwnsRows drives deliver directly: a producer
// that reuses its output storage every round (the fixpoint projector's
// scratch) runs two rounds before the consumer on the same worker drains its
// inbox, and the first round's rows must still be what was delivered.
func TestRelaxedSameWorkerHandOverOwnsRows(t *testing.T) {
	q := relaxedTestQuery(1, 2, true)
	rt := &relaxedRouter{
		q:        q,
		opt:      RelaxedOptions{Parts: 2, Owner: func(int) int { return 0 }, Staleness: -1},
		inbox:    make([][]relaxedBatch, 2),
		clock:    make([]int64, 2),
		inflight: make([]bool, 2),
	}
	rt.cond = sync.NewCond(&rt.mu)

	row := types.Row{types.Int(0), types.Int(0)}
	out := make([][]types.Row, 2)
	for round := int64(0); round < 2; round++ {
		row[0], row[1] = types.Int(round), types.Int(10*round)
		out[1] = append(out[1][:0], row)
		rt.deliver(0, out, round, 0, 0)
	}
	row[0], row[1] = types.Int(-1), types.Int(-1)

	rt.mu.Lock()
	batches, _, _ := rt.takeLocked(1)
	rt.mu.Unlock()
	got := rt.drainRows(batches, 0)
	want := intRows([2]int64{0, 0}, [2]int64{1, 10})
	if !sameRowSlices(got, want) {
		t.Errorf("drained %v, want %v: a same-worker batch aliased its producer's storage", got, want)
	}
	if n := q.Metrics.LocalFetchRows.Load(); n != 2 {
		t.Errorf("LocalFetchRows = %d, want 2 (handed over in memory, not encoded)", n)
	}
}

// TestRelaxedGatePick drives pickLocked directly: the over-lead partition
// is gated under SSP and runnable under async.
func TestRelaxedGatePick(t *testing.T) {
	q := relaxedTestQuery(1, 2, true)
	mk := func(staleness int) *relaxedRouter {
		rt := &relaxedRouter{
			q:        q,
			opt:      RelaxedOptions{Parts: 2, Owner: func(int) int { return 0 }, Staleness: staleness},
			inbox:    make([][]relaxedBatch, 2),
			clock:    []int64{5, 2},
			inflight: make([]bool, 2),
		}
		rt.cond = sync.NewCond(&rt.mu)
		rt.mu.Lock()
		rt.inbox[0] = []relaxedBatch{{n: 1, stamp: 4}}
		rt.inbox[1] = []relaxedBatch{{n: 1, stamp: 1}}
		rt.outstanding = 2
		rt.mu.Unlock()
		return rt
	}

	rt := mk(1) // SSP(1): clock 5 vs slowest active 2 → lead 3 > 1, gated.
	rt.mu.Lock()
	part, ok, _ := rt.pickLocked(0)
	rt.mu.Unlock()
	if !ok || part != 1 {
		t.Errorf("ssp(1) pick = (%d, %v), want partition 1", part, ok)
	}

	// Only the gated partition pending: its producer-side slowest is itself
	// once partition 1 drains, so it becomes runnable — no deadlock.
	rt.mu.Lock()
	rt.inbox[1] = nil
	part, ok, gated := rt.pickLocked(0)
	rt.mu.Unlock()
	if !ok || part != 0 || gated {
		t.Errorf("solo pending pick = (%d, %v, gated=%v), want (0, true, false)", part, ok, gated)
	}

	rt = mk(-1) // async: no gate, lowest clock wins.
	rt.mu.Lock()
	part, ok, _ = rt.pickLocked(0)
	rt.mu.Unlock()
	if !ok || part != 1 {
		t.Errorf("async pick = (%d, %v), want partition 1 (lowest clock)", part, ok)
	}
}

// TestStageBarrierWaitCounter pins the BSP-side accounting: a stage whose
// workers finish at different times records the idle gap as barrier wait.
func TestStageBarrierWaitCounter(t *testing.T) {
	q := relaxedTestQuery(2, 2, true)
	tasks := []Task{
		{Part: 0, Preferred: 0, Run: func(int) { burn(2_000_000) }},
		{Part: 1, Preferred: 1, Run: func(int) {}},
	}
	q.RunStage("test.skewed", tasks)
	if got := q.Metrics.BarrierWaitNanos.Load(); got <= 0 {
		t.Errorf("BarrierWaitNanos = %d, want > 0 for a skewed stage", got)
	}
	// The wait can never exceed (active-1) × slowest.
	if wait, sim := q.Metrics.BarrierWaitNanos.Load(), q.Metrics.SimNanos.Load(); wait > sim {
		t.Errorf("BarrierWaitNanos %d exceeds stage critical path %d", wait, sim)
	}
}

// BenchmarkRelaxedTokenChain drives the relaxed router's locked hot path —
// enqueue, gate-checked pick, take, complete — through a multi-round token
// chain. Run with -benchmem: the routing state machine itself should
// contribute (near) nothing on top of the per-batch slices the Process
// callback builds.
//
//rasql:allocpin cluster.relaxedRouter.enqueueLocked cluster.relaxedRouter.pickLocked cluster.relaxedRouter.takeLocked cluster.relaxedRouter.completeLocked
func BenchmarkRelaxedTokenChain(b *testing.B) {
	const parts, hops = 4, 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := relaxedTestQuery(4, parts, true)
		seed := make([][]types.Row, parts)
		seed[0] = []types.Row{{types.Int(int64(hops))}}
		stats := q.RunRelaxed(RelaxedOptions{
			Name:      "bench.chain",
			Parts:     parts,
			Owner:     func(p int) int { return p % q.Workers() },
			Staleness: 1,
			Process: func(part, worker int, rows []types.Row, round int64, stale int) [][]types.Row {
				out := make([][]types.Row, parts)
				for _, r := range rows {
					if v := r[0].I; v > 0 {
						out[(part+1)%parts] = append(out[(part+1)%parts], types.Row{types.Int(v - 1)})
					}
				}
				return out
			},
		}, seed)
		if stats.Batches == 0 {
			b.Fatal("chain routed no batches")
		}
		q.Finish()
	}
}
