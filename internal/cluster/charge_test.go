package cluster

import (
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

// The modelled costs — the per-task launch cost and the communication
// penalty — are charges on the simulated clock: they must show up in
// SimNanos in full and cost the host no time.

// TestTaskOverheadChargedToSimClock runs 64 empty tasks on one worker at a
// 10ms launch cost: the stage's simulated time is at least 640ms, while its
// wall time stays far below it.
func TestTaskOverheadChargedToSimClock(t *testing.T) {
	const overhead = int64(10_000_000)
	for _, sequential := range []bool{true, false} {
		q := New(Config{Workers: 1, Partitions: 1, TaskOverheadNanos: overhead, SequentialStages: sequential}).NewQuery(nil)
		tasks := make([]Task, 64)
		for i := range tasks {
			tasks[i] = Task{Part: i, Preferred: 0, Run: func(int) {}}
		}
		q.RunStage("test.empty", tasks)
		sim, wall := q.Metrics.SimNanos.Load(), q.Metrics.StageWallNanos.Load()
		if sim < 64*overhead {
			t.Errorf("sequential=%v: SimNanos = %d, want >= %d (64 tasks x %dns)", sequential, sim, 64*overhead, overhead)
		}
		if wall*10 > sim {
			t.Errorf("sequential=%v: StageWallNanos = %d against SimNanos %d: the launch cost spent host time", sequential, wall, sim)
		}
	}
}

// TestShufflePenaltyChargedToFetcher fetches a shuffled bucket across
// workers at a penalty of p per byte: the reduce stage gains at least p·B of
// simulated time for the B bytes fetched, a fetch on the driver adds exactly
// p·B, and a same-worker fetch pays nothing.
func TestShufflePenaltyChargedToFetcher(t *testing.T) {
	const p = int64(1_000_000_000)
	q := New(Config{Workers: 2, Partitions: 2, ShufflePenaltyNanosPerByte: p, SequentialStages: true}).NewQuery(nil)
	sh := q.NewShuffle(1)
	q.RunStage("test.map", []Task{{Part: 0, Preferred: 0, Run: func(w int) {
		sh.Add([][]types.Row{intRows([2]int64{1, 2}, [2]int64{3, 4})}, w)
	}}})

	reduce := func(worker int) (simAdded, bytes int64) {
		sim, fetched := q.Metrics.SimNanos.Load(), q.Metrics.RemoteFetchBytes.Load()
		q.RunStage("test.reduce", []Task{{Part: 0, Preferred: worker, Run: func(w int) {
			sh.FetchTarget(0, w)
		}}})
		return q.Metrics.SimNanos.Load() - sim, q.Metrics.RemoteFetchBytes.Load() - fetched
	}
	added, bytes := reduce(1)
	if bytes == 0 {
		t.Fatal("the cross-worker fetch moved no bytes")
	}
	if added < p*bytes {
		t.Errorf("cross-worker fetch of %d bytes added %dns, want >= %d", bytes, added, p*bytes)
	}
	if added, _ := reduce(0); added >= p {
		t.Errorf("same-worker fetch added %dns: it paid the communication penalty", added)
	}

	sim := q.Metrics.SimNanos.Load()
	sh.FetchTarget(0, -1)
	if added := q.Metrics.SimNanos.Load() - sim; added != p*bytes {
		t.Errorf("driver fetch of %d bytes added %dns, want %d", bytes, added, p*bytes)
	}
}

// TestRelaxedChargesPerBatch runs a relaxed token chain on one worker at a
// 10ms launch cost and a per-byte penalty: the region's simulated time is
// at least batches × overhead plus the penalty for the drained seed bytes.
func TestRelaxedChargesPerBatch(t *testing.T) {
	const overhead, p = int64(10_000_000), int64(1_000_000)
	for _, sequential := range []bool{true, false} {
		q := New(Config{Workers: 1, Partitions: 4, TaskOverheadNanos: overhead,
			ShufflePenaltyNanosPerByte: p, SequentialStages: sequential}).NewQuery(nil)
		stats, _ := runTokenChain(t, q, 4, 17, -1)
		bytes := q.Metrics.RemoteFetchBytes.Load()
		if bytes == 0 {
			t.Fatalf("sequential=%v: the seed batch drained no encoded bytes", sequential)
		}
		want := stats.Batches*overhead + p*bytes
		if sim := q.Metrics.SimNanos.Load(); sim < want {
			t.Errorf("sequential=%v: SimNanos = %d, want >= %d (%d batches x %dns + %d bytes x %dns)",
				sequential, sim, want, stats.Batches, overhead, bytes, p)
		}
		if wall := q.Metrics.StageWallNanos.Load(); wall*10 > want {
			t.Errorf("sequential=%v: StageWallNanos = %d against %dns of charges: they spent host time", sequential, wall, want)
		}
	}
}
