package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/rasql/rasql-go/internal/obs"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/trace"
	"github.com/rasql/rasql-go/internal/types"
)

// QueryContext is the per-query execution state of a cluster: the tracer,
// the per-query counters, the stage sequencer, the send memory (encode
// buffers and task queues) and the chaos injector. Each query obtains its
// own context from NewQuery, so any number of queries can share one
// Cluster concurrently — nothing on the context is visible to another
// query.
//
// A QueryContext is driven by one driver goroutine (the query's own); tasks
// inside a stage run concurrently on worker goroutines, and the stage
// barrier orders their effects. It must not be shared across queries.
type QueryContext struct {
	c   *Cluster
	cfg Config
	// ID is the engine-wide query sequence number (1-based). It stamps the
	// query's trace events (via the per-query tracer handle), its
	// QueryStats record and its query-log line.
	ID uint64
	// Tracer, when non-nil, records stage and task spans (one track per
	// worker). The nil default costs one pointer check per stage; the
	// per-task span is only built when span recording is on. NewQuery
	// derives a per-query handle stamping ID onto every event.
	Tracer *trace.Tracer
	// Metrics counts this query's work. Finish folds it into the cluster's
	// lifetime totals; read it directly for a per-query snapshot.
	Metrics *Metrics
	// stageSeq advances per stage; the hybrid policy uses it to rotate
	// task placement, modeling executors picking up whichever task is
	// next when they free up.
	stageSeq int
	// The running stage, as its workers read it: its name, whether spans
	// are recorded, its chaos scope (nil when chaos is off) and the barrier
	// its worker goroutines join. Fields rather than RunStage locals, so a
	// stage allocates no closure over them and its WaitGroup does not escape.
	stageName string
	spans     bool
	sc        *stageChaos
	wg        sync.WaitGroup
	// slowest is per-stage scratch for the critical-path sim-time of the
	// current stage; a field (not a RunStage local) so worker goroutines
	// don't force a heap allocation per stage capturing it.
	slowest atomic.Int64
	// busyTotal is per-stage scratch accumulating the sum of per-worker
	// busy times; with slowest it yields the stage's barrier wait
	// (Σ over active workers of slowest − busy).
	busyTotal atomic.Int64
	// chaos is the fault injector, nil unless Config.Chaos enables it. Each
	// query gets a fresh injector, so the fault schedule is a pure function
	// of the query's own stage sequence — independent of what other queries
	// run on the cluster.
	chaos *injector
	// started anchors the query's end-to-end latency (QueryStats.WallNanos)
	// on the sanctioned metrics stopwatch.
	started stopwatch
	// mode / fallback record the fixpoint evaluation mode that actually ran
	// and why a relaxed request was downgraded, for the QueryStats fold
	// (set by the fixpoint driver via SetMode).
	mode, fallback string
	// errText is the query's failure message ("" on success), set by the
	// engine via SetErr before Finish.
	errText string
	// finished guards against double-folding the per-query counters.
	finished bool
	// ctx carries the caller's cancellation/deadline signal down to the
	// fixpoint drivers, which receive it as Options.Context and poll it at
	// iteration boundaries — mid-stage tasks always run to their barrier,
	// so cancellation never leaves partition state half-written. Nil means
	// "never cancelled".
	ctx context.Context
	// send is the memory shuffles and transfers encode into: own, unless
	// an execution lent its plan's (LendSendMemory).
	send *SendMemory
	own  SendMemory
}

// workerQueue is one worker's part of the running stage: its tasks, and the
// communication penalty those tasks charged, which runQueue folds into the
// worker's busy time.
type workerQueue struct {
	tasks   []Task
	charged int64
}

// NewQuery opens a per-query execution context. The tracer may be nil
// (tracing off). Call Finish when the query completes to fold the per-query
// counters into the cluster's lifetime totals.
func (c *Cluster) NewQuery(tr *trace.Tracer) *QueryContext {
	id := c.queryID.Add(1)
	q := &QueryContext{
		c: c, cfg: c.cfg, ID: id,
		Tracer:  tr.ForQuery(int64(id)),
		Metrics: &Metrics{},
		started: startStopwatch(),
	}
	q.send = &q.own
	if c.cfg.Chaos.Enabled() {
		q.chaos = newInjector(c.cfg.Chaos, c.cfg.Workers)
	}
	if c.observer != nil {
		c.observer.QueryStarted()
	}
	return q
}

// SetContext attaches the caller's context to the query. The engine hands
// it to the fixpoint drivers (Options.Context), which poll it at iteration
// boundaries, so an HTTP deadline or client disconnect stops a running
// recursion between iterations. Call before evaluation starts; a nil
// context is ignored.
func (q *QueryContext) SetContext(ctx context.Context) {
	if ctx != nil {
		q.ctx = ctx
	}
}

// Context returns the caller's context, or context.Background() when none
// was attached.
func (q *QueryContext) Context() context.Context {
	if q.ctx == nil {
		return context.Background()
	}
	return q.ctx
}

// LendSendMemory makes m the memory the query's shuffles and transfers
// encode into and its stages queue their tasks in, and returns the memory
// it replaces so the lender can hand it back when its execution ends. Call
// on the driver, between stages; m must not be in use by another query
// until it is handed back.
func (q *QueryContext) LendSendMemory(m *SendMemory) (prev *SendMemory) {
	prev, q.send = q.send, m
	return prev
}

// SetMode records the fixpoint evaluation mode that actually ran and, when a
// relaxed request was downgraded to BSP, the reason — surfaced on the
// query's QueryStats record.
func (q *QueryContext) SetMode(mode, fallback string) {
	q.mode, q.fallback = mode, fallback
}

// SetErr records the query's failure for the QueryStats fold; a nil err is
// a no-op. Call before Finish.
func (q *QueryContext) SetErr(err error) {
	if err != nil {
		q.errText = err.Error()
	}
}

// Finish folds this query's counters into the cluster's lifetime totals and
// hands the query's QueryStats record to the cluster observer (latency
// percentiles, QPS, per-query attribution). Idempotent: only the first call
// folds, so it is safe to defer and also call early.
func (q *QueryContext) Finish() {
	if q.finished {
		return
	}
	q.finished = true
	snap := q.Metrics.Snapshot()
	q.c.Metrics.AddSnapshot(snap)
	if q.c.observer != nil {
		q.c.observer.ObserveQuery(q.Stats(snap))
	}
}

// Stats assembles the query's QueryStats record from a counter snapshot.
// The latency reads the stopwatch at the call, so Finish-time stats cover
// the whole query.
func (q *QueryContext) Stats(snap Snapshot) obs.QueryStats {
	return obs.QueryStats{
		ID:                  q.ID,
		WallNanos:           q.started.elapsedNanos(),
		SimNanos:            snap.SimNanos,
		Iterations:          snap.Iterations,
		ShuffleBytes:        snap.ShuffleBytes,
		ShuffleRecords:      snap.ShuffleRecords,
		TaskRetries:         snap.TaskRetries,
		RowsReplayed:        snap.RowsReplayed,
		RecoveredIterations: snap.RecoveredIterations,
		StaleReads:          snap.StaleReads,
		SupersededRows:      snap.SupersededRows,
		BarrierWaitNanos:    snap.BarrierWaitNanos,
		Mode:                q.mode,
		FallbackReason:      q.fallback,
		Err:                 q.errText,
	}
}

// Partitions returns the default partition count.
func (q *QueryContext) Partitions() int { return q.cfg.Partitions }

// DefaultOwner returns the canonical owner worker for a partition.
func (q *QueryContext) DefaultOwner(part int) int { return part % q.cfg.Workers }

// NewState creates the cached state of a recursive view (see
// Cluster.NewState).
func (q *QueryContext) NewState(key []int, valIdx int, kind types.AggKind) *State {
	return q.c.NewState(key, valIdx, kind)
}

// RunStage places the tasks per the scheduling policy and executes them,
// each simulated worker draining its queue sequentially. By default the
// worker queues run on real goroutines; with SequentialStages they run one
// after another on the caller. Either way the stage contributes
// max(per-worker busy time) to the simulated clock (SimNanos) — what a real
// cluster's stage barrier would wait for — so the simulated clock is
// independent of how many queues actually overlap on the host. A worker's
// busy time is its measured time plus its modelled charges: the launch cost
// of each queued task and its communication penalty. The name is for
// debugging/tracing only.
func (q *QueryContext) RunStage(name string, tasks []Task) {
	q.Metrics.StagesRun.Add(1)
	q.Metrics.TasksRun.Add(int64(len(tasks)))
	seq := q.stageSeq
	q.stageSeq++

	q.send.fit(q.cfg.Workers)
	queues := q.send.queues
	for i := range queues {
		queues[i].tasks = queues[i].tasks[:0]
	}
	for _, t := range tasks {
		wq := &queues[q.place(t, seq)]
		wq.tasks = append(wq.tasks, t)
	}

	q.stageName, q.spans, q.sc = name, q.Tracer.SpansEnabled(), nil
	var stageSpan trace.Span
	if q.spans {
		stageSpan = q.Tracer.BeginArgs("stage "+name, trace.TidDriver,
			trace.Arg{Key: "tasks", Val: int64(len(tasks))})
	}
	if q.chaos != nil {
		q.sc = q.chaos.beginStage(name, seq)
	}
	start := startStopwatch()
	q.slowest.Store(0)
	q.busyTotal.Store(0)
	active := 0
	for w := range queues {
		switch {
		case len(queues[w].tasks) == 0:
			continue
		case q.cfg.SequentialStages:
			q.runQueue(w)
		default:
			q.wg.Add(1)
			go q.runWorker(w)
		}
		active++
	}
	q.wg.Wait()
	q.Metrics.StageWallNanos.Add(start.elapsedNanos())
	slowest := q.slowest.Load()
	q.Metrics.SimNanos.Add(slowest)
	// Barrier wait: every active worker idles until the slowest finishes,
	// so the stage's synchronization cost is Σ(slowest − busy) — what
	// barrier relaxation removes.
	if active > 0 {
		q.Metrics.BarrierWaitNanos.Add(slowest*int64(active) - q.busyTotal.Load())
	}
	stageSpan.End()
}

// runWorker is worker w's goroutine for the running stage: it drains the
// worker's queue and joins the stage barrier.
func (q *QueryContext) runWorker(w int) {
	defer q.wg.Done()
	q.runQueue(w)
}

// runQueue drains one worker's task queue for the current stage. The stage
// reaches it through the QueryContext's fields, so spawning a worker
// allocates only the goroutine's own argument closure and the sequential
// path allocates nothing. TestDisabledInjectorZeroAllocs pins the sequential
// scheduler loop and TestParallelRunStageAllocBudget the parallel one,
// chaos-off and spans-off; the chaos and span paths allocate their
// bookkeeping, and task bodies own their allocations.
func (q *QueryContext) runQueue(w int) {
	wq := &q.send.queues[w]
	queue, name, spans, sc := wq.tasks, q.stageName, q.spans, q.sc
	t0 := startStopwatch()
	for _, t := range queue {
		if sc != nil {
			q.runTaskChaos(sc, t, w, spans, name)
		} else if spans {
			s := q.Tracer.BeginArgs(name, trace.TidWorker(w),
				trace.Arg{Key: "part", Val: int64(t.Part)})
			t.Run(w)
			s.End()
		} else {
			t.Run(w)
		}
	}
	d := t0.elapsedNanos() + int64(len(queue))*q.cfg.TaskOverheadNanos + wq.charged
	wq.charged = 0
	q.busyTotal.Add(d)
	for {
		cur := q.slowest.Load()
		if d <= cur || q.slowest.CompareAndSwap(cur, d) {
			break
		}
	}
}

// charge adds modelled nanoseconds to worker w's busy time in the running
// stage. Only w's own tasks may charge it; the driver's charge (w = −1) runs
// on no worker and goes straight to the simulated clock.
func (q *QueryContext) charge(w int, nanos int64) {
	if w < 0 {
		q.Metrics.SimNanos.Add(nanos)
		return
	}
	q.send.queues[w].charged += nanos
}

func (q *QueryContext) place(t Task, seq int) int {
	switch q.cfg.Policy {
	case PolicyPartitionAware:
		if t.Preferred >= 0 {
			return t.Preferred % q.cfg.Workers
		}
		return t.Part % q.cfg.Workers
	default: // PolicyHybrid: rotate placement each stage.
		return (t.Part + seq) % q.cfg.Workers
	}
}

// transfer moves rows across a worker boundary: it pays the full
// serialize + deserialize cost and records the bytes, exactly as a remote
// fetch over the network would. It runs on worker onWorker (−1: the driver)
// and encodes into that worker's send scratch. The decoded rows are
// appended to dst (nil: a slice of their own) and carved from slab (nil:
// one block of their own).
func (q *QueryContext) transfer(dst []types.Row, slab *types.RowSlab, rows []types.Row, onWorker int) []types.Row {
	if len(rows) == 0 {
		return dst
	}
	// Inside a stage RunStage already sized the scratch, so a task only
	// reads the length here.
	q.send.fit(q.cfg.Workers)
	buf := q.send.encode(onWorker, rows)
	q.Metrics.RemoteFetchBytes.Add(int64(len(buf)))
	out, err := types.DecodeRowsInto(dst, slab, buf)
	if err != nil {
		// The buffer was produced by AppendRows in the same process; a
		// decode failure is a programming error, not an I/O condition.
		panic(fmt.Sprintf("cluster: internal wire corruption: %v", err))
	}
	return out
}

// Fetch returns a partition's rows as seen from the given worker: free for
// the owner, serialized round trip for anyone else. onWorker must be the
// worker whose task calls Fetch (−1: the driver), which pays the round
// trip. Under chaos, rows a retrying task fetches again are counted as
// replayed (wasted) work.
func (q *QueryContext) Fetch(rows []types.Row, owner, onWorker int) []types.Row {
	if q.fetched(rows, owner, onWorker) {
		return rows
	}
	return q.transfer(nil, nil, rows, onWorker)
}

// FetchInto is Fetch for a reader that keeps the rows in memory of its own:
// they are appended to dst, and a copy across the boundary carves them from
// slab (nil: one block of their own), so a reader that reuses both fetches
// without allocating.
func (q *QueryContext) FetchInto(dst []types.Row, slab *types.RowSlab, rows []types.Row, owner, onWorker int) []types.Row {
	if q.fetched(rows, owner, onWorker) {
		return append(dst, rows...)
	}
	return q.transfer(dst, slab, rows, onWorker)
}

// fetched counts a fetch of rows and reports whether it is local, so the
// rows need no copy.
func (q *QueryContext) fetched(rows []types.Row, owner, onWorker int) bool {
	q.chaos.replayRows(q.Metrics, onWorker, len(rows))
	if owner == onWorker {
		q.Metrics.LocalFetchRows.Add(int64(len(rows)))
		return true
	}
	return false
}

// Collect gathers all partitions into a single relation on the driver,
// paying the transfer cost for every partition (the driver is not a worker).
func (q *QueryContext) Collect(p *PartitionedRelation, name string) *relation.Relation {
	out := relation.New(name, p.Schema)
	for _, part := range p.Parts {
		out.Rows = q.transfer(out.Rows, nil, part, -1)
	}
	return out
}
